#include "ocd/shard/transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "ocd/faults/model.hpp"
#include "ocd/util/parallel.hpp"

namespace ocd::shard {

namespace {

/// Everything the driver must remember about one executed step to
/// rebuild a dead worker: the message rows each shard received in the
/// plan and apply rounds, plus (in-process with faults) each shard's
/// recorded loss trace.  Entries live from execution until the next
/// checkpoint trims them, so the log is bounded by the checkpoint
/// interval.
struct StepMailLog {
  std::vector<std::vector<std::string>> plan_in;   ///< [shard][peer]
  std::vector<std::vector<std::string>> apply_in;  ///< [shard][peer]
  std::vector<std::string> losses;                 ///< [shard], in-process
};

constexpr std::int64_t kReplayAll = std::numeric_limits<std::int64_t>::max();

}  // namespace

// ---------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------

TransportResult InProcessTransport::run(const RunContext& ctx) {
  const std::int32_t num_shards = ctx.partition->num_shards;
  const auto count = static_cast<std::size_t>(num_shards);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  workers.reserve(count);
  for (std::int32_t s = 0; s < num_shards; ++s)
    workers.push_back(std::make_unique<ShardWorker>(ctx, s));

  // Two mailbox grids per round trip: workers write their outbox row in
  // parallel, the driver transposes at the barrier, then workers read
  // their inbox — a phase never reads a grid a peer is still writing.
  std::vector<std::vector<std::string>> outbox(count), inbox(count);
  for (auto& row : inbox) row.assign(count, {});
  const auto transpose = [&] {
    for (std::size_t src = 0; src < count; ++src)
      for (std::size_t dst = 0; dst < count; ++dst)
        if (src != dst) inbox[dst][src] = std::move(outbox[src][dst]);
  };
  const auto each = [&](auto&& fn) {
    util::parallel_for(count, 1, [&](util::ChunkRange chunk) {
      for (std::size_t s = chunk.begin; s < chunk.end; ++s) fn(s);
    });
  };

  // Recovery bookkeeping — all of it on the driver thread, strictly
  // between the parallel phases, so the suite is TSan-clean.
  TransportResult result;
  RecoveryStats& rec = result.recovery;
  const bool recovery = ctx.recovery_armed;
  const bool faulted = ctx.sim.faults != nullptr;
  std::vector<std::int32_t> incarnation(count, 0);
  std::vector<std::vector<std::string>> init_in;
  std::map<std::int64_t, StepMailLog> log;
  std::vector<std::string> checkpoints(count);
  std::int64_t ckpt_step = -1;

  // Rebuild shard `s` as if it died immediately before `phase` of the
  // in-flight step: fresh worker, restore the latest checkpoint (or
  // re-absorb the logged init round), replay every committed step from
  // the delivery log, then silently re-run the in-flight step's earlier
  // phases — their outputs were already delivered, so they are
  // discarded, and recorded loss traces stand in for the shared fault
  // model, whose chain is already at the live step.
  const auto recover = [&](std::size_t s, CrashPhase phase,
                           std::int64_t step) {
    if (incarnation[s] >= ctx.max_respawns)
      throw Error("shard recovery: shard " + std::to_string(s) +
                  " exhausted max_respawns (" +
                  std::to_string(ctx.max_respawns) + ") at step " +
                  std::to_string(step) + ", phase " +
                  crash_phase_name(phase));
    ++incarnation[s];
    workers[s] = std::make_unique<ShardWorker>(ctx, static_cast<std::int32_t>(s));
    std::int64_t from = 0;
    if (ckpt_step >= 0) {
      workers[s]->restore_checkpoint(checkpoints[s]);
      from = ckpt_step;
    } else {
      workers[s]->absorb_init(init_in[s]);
    }
    std::vector<std::string> discard;
    for (std::int64_t k = from; k < step; ++k) {
      const StepMailLog& l = log.at(k);
      workers[s]->phase_plan(discard, faulted ? &l.losses[s] : nullptr);
      workers[s]->phase_apply(l.plan_in[s], discard);
      workers[s]->phase_commit(l.apply_in[s]);
    }
    rec.replayed_steps += step - from;
    if (phase != CrashPhase::kPlan) {
      const StepMailLog& l = log.at(step);
      workers[s]->phase_plan(discard, faulted ? &l.losses[s] : nullptr);
      if (phase == CrashPhase::kCommit)
        workers[s]->phase_apply(l.plan_in[s], discard);
    }
    ++rec.recoveries;
  };

  // Scripted injection at the barrier the phase is about to cross.  A
  // hang is handled as a crash: inside one address space there is no
  // deadline to expire, so detection is immediate by definition.  The
  // loop re-queries after each respawn so crash_always() points burn
  // the respawn budget exactly as they do under the forked transport.
  const auto inject = [&](CrashPhase phase, std::int64_t step) {
    if (ctx.crash_plan == nullptr) return;
    for (std::size_t s = 0; s < count; ++s) {
      while (ctx.crash_plan->action(static_cast<std::int32_t>(s), step, phase,
                                    incarnation[s]) != CrashAction::kNone) {
        ++rec.worker_crashes;
        recover(s, phase, step);
      }
    }
  };

  each([&](std::size_t s) { workers[s]->phase_init(outbox[s]); });
  transpose();
  if (recovery) init_in = inbox;
  each([&](std::size_t s) { workers[s]->absorb_init(inbox[s]); });

  const bool driver_faults = !ctx.worker_advances_faults && faulted;
  while (workers[0]->running()) {
    const std::int64_t step = workers[0]->step();
    if (driver_faults)
      ctx.sim.faults->begin_step(step, ctx.instance->graph());
    StepMailLog* l = recovery ? &log[step] : nullptr;
    inject(CrashPhase::kPlan, step);
    each([&](std::size_t s) { workers[s]->phase_plan(outbox[s]); });
    if (recovery && faulted) {
      l->losses.resize(count);
      for (std::size_t s = 0; s < count; ++s)
        l->losses[s] = workers[s]->loss_record();
    }
    transpose();
    if (recovery) l->plan_in = inbox;
    inject(CrashPhase::kApply, step);
    each([&](std::size_t s) { workers[s]->phase_apply(inbox[s], outbox[s]); });
    transpose();
    if (recovery) l->apply_in = inbox;
    inject(CrashPhase::kCommit, step);
    each([&](std::size_t s) { workers[s]->phase_commit(inbox[s]); });
    for (std::size_t s = 1; s < count; ++s)
      OCD_ASSERT_MSG(workers[s]->running() == workers[0]->running(),
                     "shards disagree on continuation");
    if (recovery && ctx.checkpoint_interval > 0 && workers[0]->running() &&
        workers[0]->step() % ctx.checkpoint_interval == 0) {
      for (std::size_t s = 0; s < count; ++s) {
        checkpoints[s] = workers[s]->save_checkpoint();
        rec.checkpoint_bytes +=
            static_cast<std::int64_t>(checkpoints[s].size());
      }
      ckpt_step = workers[0]->step();
      log.erase(log.begin(), log.lower_bound(ckpt_step));
    }
  }

  result.fragments.resize(count);
  for (std::size_t s = 0; s < count; ++s)
    result.fragments[s] = workers[s]->finish_fragment();
  return result;
}

// ---------------------------------------------------------------------
// Forked one-host transport
// ---------------------------------------------------------------------

namespace {

std::int64_t now_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         ts.tv_nsec / 1'000'000;
}

/// Blocks until `fd` is ready for `events` or the deadline passes.
/// EINTR-safe; an expired deadline is the hang signal, reported as a
/// field-named error so a wedged peer can never stall the run.
void wait_ready(int fd, short events, std::int64_t deadline,
                const char* what) {
  for (;;) {
    const std::int64_t remaining = deadline - now_ms();
    if (remaining <= 0)
      throw Error(std::string("shard transport: deadline expired (") + what +
                  ") — a shard process is hung");
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int ready = ::poll(
        &p, 1,
        static_cast<int>(std::min<std::int64_t>(remaining, 1'000'000)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("shard transport: poll failed (") + what +
                  "): " + std::strerror(errno));
    }
    if (ready > 0) return;  // readable/writable/HUP; the I/O op decides
  }
}

/// Deadline-bounded full read on a non-blocking socket; throws on EOF
/// or error (a dead child) and on an expired deadline (a hung one).
void read_all(int fd, void* buffer, std::size_t n, const char* what,
              std::int64_t timeout_ms) {
  auto* out = static_cast<char*>(buffer);
  const std::int64_t deadline = now_ms() + timeout_ms;
  while (n > 0) {
    const ssize_t got = ::read(fd, out, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_ready(fd, POLLIN, deadline, what);
        continue;
      }
      throw Error(std::string("shard transport: read failed (") + what +
                  "): " + std::strerror(errno));
    }
    if (got == 0)
      throw Error(std::string("shard transport: unexpected EOF (") + what +
                  ") — a shard process died");
    out += got;
    n -= static_cast<std::size_t>(got);
  }
}

/// Deadline-bounded full write.  MSG_NOSIGNAL turns a closed peer into
/// EPIPE instead of SIGPIPE (the parent additionally ignores SIGPIPE
/// for the duration of the run, so no disposition race can kill it).
void write_all(int fd, const void* buffer, std::size_t n, const char* what,
               std::int64_t timeout_ms) {
  const auto* in = static_cast<const char*>(buffer);
  const std::int64_t deadline = now_ms() + timeout_ms;
  while (n > 0) {
    const ssize_t put = ::send(fd, in, n, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_ready(fd, POLLOUT, deadline, what);
        continue;
      }
      if (errno == EPIPE)
        throw Error(std::string("shard transport: broken pipe (") + what +
                    ") — a shard process died");
      throw Error(std::string("shard transport: write failed (") + what +
                  "): " + std::strerror(errno));
    }
    in += put;
    n -= static_cast<std::size_t>(put);
  }
}

constexpr std::uint32_t kMaxFrame = 1u << 30;  // 1 GiB sanity bound

/// Frame: [u32 peer][u32 len][len bytes].  `peer` is the destination
/// shard child->parent and the source shard parent->child.
void write_frame(int fd, std::uint32_t peer, const std::string& bytes,
                 const char* what, std::int64_t timeout_ms) {
  const auto len = static_cast<std::uint32_t>(bytes.size());
  write_all(fd, &peer, sizeof(peer), what, timeout_ms);
  write_all(fd, &len, sizeof(len), what, timeout_ms);
  if (len > 0) write_all(fd, bytes.data(), len, what, timeout_ms);
}

std::pair<std::uint32_t, std::string> read_frame(int fd, const char* what,
                                                 std::int64_t timeout_ms) {
  std::uint32_t peer = 0;
  std::uint32_t len = 0;
  read_all(fd, &peer, sizeof(peer), what, timeout_ms);
  read_all(fd, &len, sizeof(len), what, timeout_ms);
  if (len > kMaxFrame)
    throw Error(std::string("shard transport: oversized frame (") + what +
                ")");
  std::string bytes(len, '\0');
  if (len > 0) read_all(fd, bytes.data(), len, what, timeout_ms);
  return {peer, std::move(bytes)};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw Error(std::string("shard transport: fcntl failed: ") +
                std::strerror(errno));
}

/// Scoped SIGPIPE suppression for the supervisor: a child that dies
/// while the parent is mid-write must surface as EPIPE, never as a
/// process-killing signal.  The previous disposition is restored on
/// exit so the library does not leak policy into its host.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &old_);
  }
  ~SigpipeGuard() { ::sigaction(SIGPIPE, &old_, nullptr); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  struct sigaction old_ = {};
};

/// Child side: send this shard's round messages, then receive the
/// peers' messages.  Children always write their full round before
/// reading, and the parent always reads every child before writing, so
/// the star cannot deadlock regardless of socket buffer sizes.
void child_round(int fd, std::int32_t self, std::vector<std::string>& out,
                 std::vector<std::string>& in, const char* what,
                 std::int64_t timeout_ms) {
  const auto count = out.size();
  for (std::size_t dst = 0; dst < count; ++dst) {
    if (dst == static_cast<std::size_t>(self)) continue;
    write_frame(fd, static_cast<std::uint32_t>(dst), out[dst], what,
                timeout_ms);
  }
  in.assign(count, {});
  for (std::size_t i = 0; i + 1 < count; ++i) {
    auto [src, bytes] = read_frame(fd, what, timeout_ms);
    if (src >= count || src == static_cast<std::uint32_t>(self) ||
        !in[src].empty())
      throw Error(std::string("shard transport: bad source shard (") + what +
                  ")");
    in[src] = std::move(bytes);
  }
}

/// Where a respawned child rejoins the protocol.  The parent picks the
/// point from the sub-stage whose I/O failed; the child re-executes
/// exactly the live work whose output was never delivered, and re-runs
/// everything earlier silently (outputs discarded — the peers already
/// consumed the previous incarnation's identical bytes).
enum class Resume : std::uint8_t {
  kFresh,            ///< initial spawn, full protocol from phase_init
  kInitRound,        ///< redo the init round's I/O
  kInitCommit,       ///< absorb the logged init mail, handshake, loop
  kPlanRound,        ///< replay, then loop from phase_plan
  kApplyRound,       ///< replay; silent plan; live from phase_apply
  kCommitRound,      ///< replay; silent plan+apply; live from commit
  kCheckpointFrame,  ///< replay everything, rewrite the checkpoint frame
  kFragment,         ///< replay everything, write the fragment
};

struct Supervisor;

struct ChildTask {
  const RunContext* ctx = nullptr;
  const Supervisor* sup = nullptr;  ///< parent state, copy-on-write
  std::int32_t shard = 0;
  std::int32_t incarnation = 0;
  Resume resume = Resume::kFresh;
};

void child_main(int fd, const ChildTask& task);

/// The parent's half of the crash-tolerant barrier protocol.  All
/// per-child I/O goes through attempt(), which on failure either
/// respawns the child from the logged state and retries (recovery
/// armed) or rethrows the field-named error (recovery off — the
/// satellite guarantee that a wedged peer can never hang ctest).
struct Supervisor {
  explicit Supervisor(const RunContext& context)
      : ctx(context),
        count(static_cast<std::size_t>(context.partition->num_shards)),
        timeout(context.barrier_timeout_ms),
        fds(count, -1),
        pids(count, -1),
        incarnation(count, 0),
        checkpoints(count),
        mail(count) {}

  const RunContext& ctx;
  std::size_t count;
  std::int64_t timeout;
  std::vector<int> fds;
  std::vector<pid_t> pids;
  std::vector<std::int32_t> incarnation;

  // Committed state for respawns (children read it copy-on-write).
  std::vector<std::vector<std::string>> init_in;  ///< [shard][src]
  std::map<std::int64_t, StepMailLog> log;
  std::vector<std::string> checkpoints;
  std::int64_t ckpt_step = -1;
  /// Continue-barriers passed == the step index of the in-flight round.
  std::int64_t committed = 0;
  bool in_init = true;

  RecoveryStats rec;
  std::vector<std::vector<std::string>> mail;  ///< [src][dst] round scratch
  std::uint8_t barrier_status = 0;

  enum class Stage : std::uint8_t {
    kFrames,      ///< reading a child's round frames
    kMail,        ///< writing a child its round mail
    kStatus,      ///< reading a child's status byte
    kAck,         ///< writing a child the ack byte
    kCheckpoint,  ///< reading a child's checkpoint frame
    kFragment,    ///< reading a child's finish fragment
  };

  /// Which message round a kFrames/kMail stage belongs to; the other
  /// stages ignore it (pass Round::kApply by convention).
  enum class Round : std::uint8_t { kPlan, kApply };

  void spawn(std::size_t s, Resume resume) {
    int pair[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0)
      throw Error(std::string("shard transport: socketpair failed: ") +
                  std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pair[0]);
      ::close(pair[1]);
      throw Error(std::string("shard transport: fork failed: ") +
                  std::strerror(errno));
    }
    if (pid == 0) {
      // Child: keep only its own socket.  The worker pool's threads did
      // not survive the fork; the worker never uses them.
      for (int fd : fds)
        if (fd >= 0) ::close(fd);
      ::close(pair[0]);
      ChildTask task;
      task.ctx = &ctx;
      task.sup = this;
      task.shard = static_cast<std::int32_t>(s);
      task.incarnation = incarnation[s];
      task.resume = resume;
      try {
        set_nonblocking(pair[1]);
        child_main(pair[1], task);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "shard %zu: %s\n", s, e.what());
        ::_exit(1);
      } catch (...) {
        ::_exit(1);
      }
      ::_exit(0);
    }
    ::close(pair[1]);
    set_nonblocking(pair[0]);
    fds[s] = pair[0];
    pids[s] = pid;
  }

  void terminate(std::size_t s) {
    if (pids[s] > 0) {
      ::kill(pids[s], SIGKILL);
      int status = 0;
      while (::waitpid(pids[s], &status, 0) < 0 && errno == EINTR) {
      }
      pids[s] = -1;
    }
    if (fds[s] >= 0) {
      ::close(fds[s]);
      fds[s] = -1;
    }
  }

  [[nodiscard]] const char* phase_label(Stage stage) const {
    if (in_init) return "init";
    switch (stage) {
      case Stage::kFrames:
      case Stage::kMail:
        return mail_round_label;
      case Stage::kStatus:
      case Stage::kAck:
        return "commit";
      case Stage::kCheckpoint:
        return "checkpoint";
      case Stage::kFragment:
        return "fragment";
    }
    return "?";
  }

  const char* mail_round_label = "plan";  ///< set by step_round()

  [[nodiscard]] Resume resume_point(Stage stage, Round round) const {
    if (in_init)
      return stage == Stage::kFrames ? Resume::kInitRound
                                     : Resume::kInitCommit;
    switch (stage) {
      case Stage::kFrames:
        return round == Round::kPlan ? Resume::kPlanRound
                                     : Resume::kApplyRound;
      case Stage::kMail:
        // The failed mail row is re-read from the log (route_round files
        // it before any write), so the child rejoins at the next round.
        return round == Round::kPlan ? Resume::kApplyRound
                                     : Resume::kCommitRound;
      case Stage::kStatus:
      case Stage::kAck:
        return Resume::kCommitRound;
      case Stage::kCheckpoint:
        return Resume::kCheckpointFrame;
      case Stage::kFragment:
        return Resume::kFragment;
    }
    return Resume::kFragment;
  }

  /// Kills, respawns, and fast-forwards shard `s` after an I/O failure
  /// at `stage`.  Throws when recovery is off (rethrowing the original
  /// field-named error with context) or the respawn budget is spent.
  void recover(std::size_t s, Stage stage, Round round,
               const Error& cause) {
    ++rec.worker_crashes;
    terminate(s);
    if (!ctx.recovery_armed)
      throw Error("shard transport: shard " + std::to_string(s) +
                  " failed at step " + std::to_string(committed) + " (" +
                  phase_label(stage) + "), recovery is off: " + cause.what());
    if (incarnation[s] >= ctx.max_respawns)
      throw Error("shard recovery: shard " + std::to_string(s) +
                  " exhausted max_respawns (" +
                  std::to_string(ctx.max_respawns) + ") at step " +
                  std::to_string(committed) + ", phase " +
                  phase_label(stage));
    ++incarnation[s];
    const Resume resume = resume_point(stage, round);
    // Respawn-time replay accounting: the child will re-execute every
    // logged step below the live one (all of them for the post-loop
    // resume points).
    const std::int64_t from = ckpt_step >= 0 ? ckpt_step : 0;
    const std::int64_t upto = (resume == Resume::kCheckpointFrame ||
                               resume == Resume::kFragment)
                                  ? kReplayAll
                                  : committed;
    if (resume != Resume::kInitRound && resume != Resume::kInitCommit)
      for (const auto& [k, entry] : log)
        if (k >= from && k < upto) ++rec.replayed_steps;
    spawn(s, resume);
    ++rec.recoveries;
    if (stage == Stage::kAck) {
      // The respawned child re-runs the commit and handshakes; drain
      // its (identical) status byte so the retried ack write aligns.
      std::uint8_t status = 0;
      read_all(fds[s], &status, 1, "status", timeout);
      if (status != barrier_status)
        throw Error("shard transport: shards disagree on continuation");
    }
  }

  /// Runs `op` against shard `s`, recovering and retrying on failure.
  /// `op` must be restartable from scratch (reads clear their partial
  /// state first).  Returns false when the op became moot because the
  /// respawned child takes its input from the log instead (mail
  /// writes).
  template <typename Op>
  bool attempt(std::size_t s, Stage stage, Round round, Op&& op) {
    for (;;) {
      try {
        op();
        return true;
      } catch (const Error& e) {
        recover(s, stage, round, e);
        if (stage == Stage::kMail) return false;  // child reads the log
      }
    }
  }

  /// Reads shard `s`'s full set of round frames into mail[s].
  void read_frames(std::size_t s, const char* what) {
    mail[s].assign(count, {});
    for (std::size_t i = 0; i + 1 < count; ++i) {
      auto [dst, bytes] = read_frame(fds[s], what, timeout);
      if (dst >= count || dst == s || !mail[s][dst].empty())
        throw Error(std::string("shard transport: bad destination shard (") +
                    what + ")");
      mail[s][dst] = std::move(bytes);
    }
  }

  /// mail (indexed [src][dst]) transposed into per-recipient rows.
  [[nodiscard]] std::vector<std::vector<std::string>> recipient_rows()
      const {
    std::vector<std::vector<std::string>> rows(
        count, std::vector<std::string>(count));
    for (std::size_t src = 0; src < count; ++src)
      for (std::size_t dst = 0; dst < count; ++dst)
        if (src != dst) rows[dst][src] = mail[src][dst];
    return rows;
  }

  /// One full message round: drain every child's frames, transpose,
  /// deliver.  The per-recipient rows are filed into `log_rows` BEFORE
  /// any mail write, so a child that dies mid-delivery can always
  /// re-read its row from the log (a kMail resume point depends on it).
  void route_round(const char* what, Round round,
                   std::vector<std::vector<std::string>>* log_rows) {
    mail_round_label = what;
    for (std::size_t s = 0; s < count; ++s)
      attempt(s, Stage::kFrames, round, [&] { read_frames(s, what); });
    std::vector<std::vector<std::string>> local;
    std::vector<std::vector<std::string>>& rows =
        log_rows != nullptr ? *log_rows : local;
    rows = recipient_rows();
    for (std::size_t dst = 0; dst < count; ++dst)
      attempt(dst, Stage::kMail, round, [&] {
        for (std::size_t src = 0; src < count; ++src)
          if (src != dst)
            write_frame(fds[dst], static_cast<std::uint32_t>(src),
                        rows[dst][src], what, timeout);
      });
  }

  /// Status barrier: children must agree unanimously; the ack echo
  /// releases them.  Returns true when another step follows.
  bool status_barrier() {
    bool have = false;
    for (std::size_t s = 0; s < count; ++s)
      attempt(s, Stage::kStatus, Round::kApply, [&] {
        std::uint8_t status = 0;
        read_all(fds[s], &status, 1, "status", timeout);
        if (!have) {
          barrier_status = status;
          have = true;
        } else if (status != barrier_status) {
          throw Error("shard transport: shards disagree on continuation");
        }
      });
    for (std::size_t s = 0; s < count; ++s)
      attempt(s, Stage::kAck, Round::kApply, [&] {
        write_all(fds[s], &barrier_status, 1, "ack", timeout);
      });
    return barrier_status == 0;
  }

  void run_init_round() {
    mail_round_label = "init";
    for (std::size_t s = 0; s < count; ++s)
      attempt(s, Stage::kFrames, Round::kPlan,
              [&] { read_frames(s, "init"); });
    init_in = recipient_rows();
    for (std::size_t dst = 0; dst < count; ++dst)
      attempt(dst, Stage::kMail, Round::kPlan, [&] {
        for (std::size_t src = 0; src < count; ++src)
          if (src != dst)
            write_frame(fds[dst], static_cast<std::uint32_t>(src),
                        init_in[dst][src], "init", timeout);
      });
  }

  void run_step_round() {
    StepMailLog* entry = ctx.recovery_armed ? &log[committed] : nullptr;
    route_round("plan", Round::kPlan,
                entry != nullptr ? &entry->plan_in : nullptr);
    route_round("apply", Round::kApply,
                entry != nullptr ? &entry->apply_in : nullptr);
  }

  void maybe_collect_checkpoints() {
    if (ctx.checkpoint_interval <= 0 ||
        committed % ctx.checkpoint_interval != 0)
      return;
    std::vector<std::string> fresh(count);
    for (std::size_t s = 0; s < count; ++s)
      attempt(s, Stage::kCheckpoint, Round::kApply, [&] {
        auto [shard, bytes] = read_frame(fds[s], "checkpoint", timeout);
        if (shard != s)
          throw Error("shard transport: checkpoint from the wrong shard");
        fresh[s] = std::move(bytes);
      });
    for (const std::string& blob : fresh)
      rec.checkpoint_bytes += static_cast<std::int64_t>(blob.size());
    checkpoints = std::move(fresh);
    ckpt_step = committed;
    log.erase(log.begin(), log.lower_bound(ckpt_step));
  }

  std::vector<std::string> collect_fragments() {
    std::vector<std::string> fragments(count);
    for (std::size_t s = 0; s < count; ++s)
      attempt(s, Stage::kFragment, Round::kApply, [&] {
        auto [shard, bytes] = read_frame(fds[s], "fragment", timeout);
        if (shard != s)
          throw Error("shard transport: fragment from the wrong shard");
        fragments[s] = std::move(bytes);
      });
    return fragments;
  }

  void shutdown(bool expect_clean) {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    std::string failure;
    for (pid_t& pid : pids) {
      if (pid <= 0) continue;
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (expect_clean &&
          !(WIFEXITED(status) && WEXITSTATUS(status) == 0) &&
          failure.empty())
        failure =
            "shard transport: shard process exited abnormally (status " +
            std::to_string(status) + ")";
      pid = -1;
    }
    if (!failure.empty()) throw Error(failure);
  }
};

/// Child process body.  A fresh child runs the whole protocol; a
/// respawned one rebuilds its worker from the supervisor's logged state
/// (visible copy-on-write), replays silently, re-enters at its Resume
/// point, and from there is indistinguishable from the original.
void child_main(int fd, const ChildTask& task) {
  const RunContext& ctx = *task.ctx;
  const Supervisor& sup = *task.sup;
  const auto count = static_cast<std::size_t>(ctx.partition->num_shards);
  // A child's deadline is only a backstop against a dead supervisor.  A
  // healthy child legitimately waits while the parent spends up to
  // barrier_timeout_ms detecting each of a sibling's failures (times
  // the respawn budget, times the shard count), so the backstop scales
  // past that worst case — otherwise a peer's recovery would cascade
  // into this child's own suicide-by-timeout.
  const std::int64_t timeout =
      ctx.barrier_timeout_ms *
      (static_cast<std::int64_t>(count) * (ctx.max_respawns + 2) + 2);
  const auto shard = static_cast<std::size_t>(task.shard);
  ShardWorker worker(ctx, task.shard);
  std::vector<std::string> out(count), in(count), discard(count);

  const auto handshake = [&] {
    const std::uint8_t status = worker.running() ? 0 : 1;
    write_all(fd, &status, 1, "status", timeout);
    std::uint8_t ack = 0;
    read_all(fd, &ack, 1, "ack", timeout);
    if (ack != status)
      throw Error("shard transport: shards disagree on continuation");
  };
  const auto maybe_checkpoint = [&] {
    if (ctx.checkpoint_interval > 0 && worker.running() &&
        worker.step() % ctx.checkpoint_interval == 0)
      write_frame(fd, static_cast<std::uint32_t>(shard),
                  worker.save_checkpoint(), "checkpoint", timeout);
  };
  // Scripted failure injection at the live barriers only — replayed
  // steps already survived their barriers in a previous incarnation.
  const auto inject = [&](CrashPhase phase) {
    if (ctx.crash_plan == nullptr) return;
    switch (ctx.crash_plan->action(task.shard, worker.step(), phase,
                                   task.incarnation)) {
      case CrashAction::kNone:
        return;
      case CrashAction::kCrash:
        ::_exit(9);  // abrupt death: no flush, no farewell frame
      case CrashAction::kHang:
        for (;;) ::pause();  // wedged until the parent's deadline fires
    }
  };

  if (task.resume == Resume::kFresh || task.resume == Resume::kInitRound) {
    worker.phase_init(out);
    child_round(fd, task.shard, out, in, "init", timeout);
    worker.absorb_init(in);
    handshake();
  } else if (task.resume == Resume::kInitCommit) {
    worker.absorb_init(sup.init_in[shard]);
    handshake();
  } else {
    // Rebuild committed state: checkpoint (or logged init), then silent
    // replay.  The private copy-on-write fault model is fast-forwarded
    // by restore_checkpoint; replayed phase_plans advance it onward.
    std::int64_t from = 0;
    if (sup.ckpt_step >= 0) {
      worker.restore_checkpoint(sup.checkpoints[shard]);
      from = sup.ckpt_step;
    } else {
      worker.absorb_init(sup.init_in[shard]);
    }
    const std::int64_t upto = (task.resume == Resume::kCheckpointFrame ||
                               task.resume == Resume::kFragment)
                                  ? kReplayAll
                                  : sup.committed;
    for (const auto& [k, entry] : sup.log) {
      if (k < from || k >= upto) continue;
      worker.phase_plan(discard);
      worker.phase_apply(entry.plan_in[shard], discard);
      worker.phase_commit(entry.apply_in[shard]);
    }
    switch (task.resume) {
      case Resume::kPlanRound:
        break;  // the loop below starts exactly at phase_plan
      case Resume::kApplyRound: {
        const StepMailLog& live = sup.log.at(sup.committed);
        worker.phase_plan(discard);  // frames already delivered
        inject(CrashPhase::kApply);
        worker.phase_apply(live.plan_in[shard], out);
        child_round(fd, task.shard, out, in, "apply", timeout);
        inject(CrashPhase::kCommit);
        worker.phase_commit(in);
        handshake();
        maybe_checkpoint();
        break;
      }
      case Resume::kCommitRound: {
        const StepMailLog& live = sup.log.at(sup.committed);
        worker.phase_plan(discard);
        worker.phase_apply(live.plan_in[shard], discard);
        inject(CrashPhase::kCommit);
        worker.phase_commit(live.apply_in[shard]);
        handshake();
        maybe_checkpoint();
        break;
      }
      case Resume::kCheckpointFrame:
        write_frame(fd, static_cast<std::uint32_t>(shard),
                    worker.save_checkpoint(), "checkpoint", timeout);
        break;
      case Resume::kFragment:
        break;  // replay left running() false; fall through to the end
      default:
        break;
    }
  }

  while (worker.running()) {
    inject(CrashPhase::kPlan);
    worker.phase_plan(out);
    child_round(fd, task.shard, out, in, "plan", timeout);
    inject(CrashPhase::kApply);
    worker.phase_apply(in, out);
    child_round(fd, task.shard, out, in, "apply", timeout);
    inject(CrashPhase::kCommit);
    worker.phase_commit(in);
    handshake();
    maybe_checkpoint();
  }
  write_frame(fd, static_cast<std::uint32_t>(shard),
              worker.finish_fragment(), "fragment", timeout);
}

}  // namespace

TransportResult ForkTransport::run(const RunContext& ctx) {
  SigpipeGuard sigpipe;
  Supervisor sup(ctx);
  try {
    for (std::size_t s = 0; s < sup.count; ++s) sup.spawn(s, Resume::kFresh);
    sup.run_init_round();
    bool running = sup.status_barrier();
    sup.in_init = false;
    while (running) {
      sup.run_step_round();
      running = sup.status_barrier();
      if (running) {
        ++sup.committed;
        sup.maybe_collect_checkpoints();
      }
    }
    TransportResult result;
    result.fragments = sup.collect_fragments();
    result.recovery = sup.rec;
    sup.shutdown(/*expect_clean=*/true);
    return result;
  } catch (...) {
    // Closing the sockets unblocks any child mid-read; reap without
    // masking the original error.
    try {
      sup.shutdown(/*expect_clean=*/false);
    } catch (...) {
    }
    throw;
  }
}

}  // namespace ocd::shard
