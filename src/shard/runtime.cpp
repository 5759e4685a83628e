#include "ocd/shard/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/recovery.hpp"
#include "ocd/shard/transport.hpp"
#include "ocd/util/binstream.hpp"
#include "ocd/util/env.hpp"
#include "ocd/util/stopwatch.hpp"

namespace ocd::shard {

namespace {

constexpr std::int64_t kDefaultNoProgressWindow = 256;  // simulator.cpp

/// Planners the barrier protocol reproduces bit-identically.  Everything
/// else (the kGlobal planners, adapter-wrapped policies) is refused up
/// front.
constexpr std::string_view kSupportedPolicies[] = {"round-robin", "random",
                                                   "local"};

bool supported_policy(std::string_view name) {
  for (std::string_view p : kSupportedPolicies)
    if (p == name) return true;
  return false;
}

void validate_envelope(std::string_view policy_name,
                       const sim::SimOptions& options) {
  if (options.max_steps < 0)
    throw Error("SimOptions.max_steps must be >= 0, got " +
                std::to_string(options.max_steps));
  if (options.no_progress_window < -1)
    throw Error(
        "SimOptions.no_progress_window must be -1 (off), 0 (auto) or "
        "positive, got " +
        std::to_string(options.no_progress_window));
  if (!supported_policy(policy_name))
    throw Error("sharded runtime supports policies round-robin, random "
                "and local; got '" +
                std::string(policy_name) + "'");
  if (options.staleness != 0)
    throw Error(
        "sharded runtime does not support staleness (the snapshot ring is "
        "not replicated across shards)");
  if (options.stale_aggregates)
    throw Error(
        "sharded runtime does not support stale_aggregates (aggregates are "
        "maintained by replicated deltas, not snapshot recomputes)");
  if (options.dynamics != nullptr)
    throw Error(
        "sharded runtime does not support dynamics models (per-step "
        "capacity rewrites are not replicated across shards)");
  if (options.completion)
    throw Error(
        "sharded runtime does not support completion overrides (the "
        "predicate cannot be shipped to shard processes)");
  if (options.precompute_distances)
    throw Error(
        "sharded runtime does not support precompute_distances (no "
        "supported policy may observe them)");
}

}  // namespace

// ---------------------------------------------------------------------
// ShardWorker
// ---------------------------------------------------------------------

ShardWorker::ShardWorker(const RunContext& ctx, std::int32_t shard)
    : ctx_(ctx), shard_(shard) {
  const core::Instance& inst = *ctx.instance;
  const Partition& part = *ctx.partition;
  const auto n = static_cast<std::size_t>(inst.num_vertices());
  const auto m = static_cast<std::size_t>(inst.num_tokens());
  const auto s = static_cast<std::size_t>(shard);
  num_shards_ = part.num_shards;
  faulted_ = ctx.sim.faults != nullptr;
  needs_aggregates_ = static_cast<int>(ctx.knowledge) >=
                      static_cast<int>(sim::KnowledgeClass::kLocalAggregate);

  policy_ = heuristics::make_policy(ctx.policy_name);
  policy_->reset(inst, ctx.sim.seed);

  owned_ = std::span<const VertexId>(part.owned[s]);
  rows_.resize(part.owned[s].size() + part.ghosts[s].size());
  std::merge(part.owned[s].begin(), part.owned[s].end(),
             part.ghosts[s].begin(), part.ghosts[s].end(), rows_.begin());
  row_map_.assign(n, -1);
  for (std::size_t i = 0; i < rows_.size(); ++i)
    row_map_[static_cast<std::size_t>(rows_[i])] =
        static_cast<std::int32_t>(i);
  owned_index_.assign(n, -1);
  for (std::size_t k = 0; k < owned_.size(); ++k)
    owned_index_[static_cast<std::size_t>(owned_[k])] =
        static_cast<std::int32_t>(k);

  possession_.reset(rows_.size(), m);
  for (std::size_t i = 0; i < rows_.size(); ++i)
    possession_.assign_row(i, inst.have(rows_[i]));
  uni_.reset(owned_.size(), m);

  // Every shard derives the full initial aggregates directly from the
  // instance (possession starts equal to have everywhere), so the
  // replicas agree from step 0 without any exchange.
  if (needs_aggregates_) {
    aggregates_.holders.assign(m, 0);
    aggregates_.need.assign(m, 0);
    for (VertexId v = 0; v < inst.num_vertices(); ++v) {
      const TokenSetView have = inst.have(v);
      have.for_each([&](TokenId t) {
        ++aggregates_.holders[static_cast<std::size_t>(t)];
      });
      const TokenSetView want = inst.want(v);
      for (std::size_t wi = 0, e = want.num_words(); wi < e; ++wi) {
        std::uint64_t w = want.word(wi) & ~have.word(wi);
        while (w != 0) {
          const auto t = static_cast<std::size_t>(wi) * 64 +
                         static_cast<std::size_t>(std::countr_zero(w));
          ++aggregates_.need[t];
          w &= w - 1;
        }
      }
    }
    dh_.assign(m, 0);
    dn_.assign(m, 0);
  }

  satisfied_.assign(owned_.size(), 0);
  completion_.assign(owned_.size(), -1);
  for (std::size_t k = 0; k < owned_.size(); ++k) {
    const VertexId v = owned_[k];
    const auto row = static_cast<std::size_t>(
        row_map_[static_cast<std::size_t>(v)]);
    if (inst.want(v).is_subset_of(possession_.row(row))) {
      satisfied_[k] = 1;
      completion_[k] = 0;
    } else {
      ++local_unsatisfied_;
    }
  }

  sent_by_.assign(n, 0);
  arc_load_.assign(static_cast<std::size_t>(inst.graph().num_arcs()), 0);
  touched_flag_.assign(owned_.size(), 0);
  touched_.reserve(owned_.size());
  fresh_ = TokenSet(m);
  lost_ = TokenSet(m);
  msg_tokens_ = TokenSet(m);

  out_ghost_.assign(static_cast<std::size_t>(num_shards_), {});
  for (std::int32_t p = 0; p < num_shards_; ++p) {
    if (p == shard_) continue;
    for (VertexId v : part.ghosts[static_cast<std::size_t>(p)])
      if (part.shard_of[static_cast<std::size_t>(v)] == shard_)
        out_ghost_[static_cast<std::size_t>(p)].push_back(v);
  }
  deliv_for_.assign(static_cast<std::size_t>(num_shards_), {});
}

void ShardWorker::phase_init(std::vector<std::string>& out) {
  out.assign(static_cast<std::size_t>(num_shards_), {});
  for (std::int32_t p = 0; p < num_shards_; ++p) {
    if (p == shard_) continue;
    util::BinStream msg;
    msg.put_varint(static_cast<std::uint64_t>(local_unsatisfied_));
    out[static_cast<std::size_t>(p)] = std::move(msg).take();
    bytes_sent_ +=
        static_cast<std::int64_t>(out[static_cast<std::size_t>(p)].size());
  }
}

void ShardWorker::absorb_init(const std::vector<std::string>& in) {
  unsatisfied_ = local_unsatisfied_;
  for (std::int32_t p = 0; p < num_shards_; ++p) {
    if (p == shard_) continue;
    bytes_received_ +=
        static_cast<std::int64_t>(in[static_cast<std::size_t>(p)].size());
    util::BinStream msg(in[static_cast<std::size_t>(p)]);
    unsatisfied_ +=
        static_cast<std::int64_t>(msg.get_varint("init.unsatisfied"));
    msg.require(msg.exhausted(), "init", "trailing bytes");
  }
  running_ = step_ < ctx_.sim.max_steps && unsatisfied_ > 0;
}

// Local reimplementation of sim::validate_sends: identical checks and
// error text, but possession rows are addressed through the row map
// (the sender of a "local"-policy send may be a ghost of this shard).
void ShardWorker::validate_shard_sends(std::span<const core::ArcSend> sends) {
  const Digraph& graph = ctx_.instance->graph();
  const auto fail = [&](const Arc& arc, const char* what) {
    for (const core::ArcSend& send : sends)
      arc_load_[static_cast<std::size_t>(send.arc)] = 0;
    std::ostringstream msg;
    msg << "policy '" << policy_->name() << "' " << what << " on arc ("
        << arc.from << "," << arc.to << ") at step " << step_;
    throw Error(msg.str());
  };
  for (const core::ArcSend& send : sends) {
    const Arc& arc = graph.arc(send.arc);
    const auto index = static_cast<std::size_t>(send.arc);
    arc_load_[index] += static_cast<std::int32_t>(send.tokens.count());
    if (arc_load_[index] > ctx_.static_capacity[index])
      fail(arc, "exceeded capacity");
    const auto from_row = row_map_[static_cast<std::size_t>(arc.from)];
    OCD_ASSERT(from_row >= 0);
    if (!send.tokens.is_subset_of(
            possession_.row(static_cast<std::size_t>(from_row))))
      fail(arc, "sent unpossessed tokens");
  }
  for (const core::ArcSend& send : sends)
    arc_load_[static_cast<std::size_t>(send.arc)] = 0;
}

void ShardWorker::phase_plan(std::vector<std::string>& out,
                             const std::string* replay_losses) {
  OCD_ASSERT(running_);
  const core::Instance& inst = *ctx_.instance;
  // Channel state advances every step, traffic or not (the in-process
  // driver advances the shared model instead; see RunContext).  A
  // replaying in-process worker reads its recorded loss trace and never
  // touches the shared model, whose chain is already at the live step.
  if (ctx_.worker_advances_faults && faulted_)
    ctx_.sim.faults->begin_step(step_, inst.graph());
  const bool log_losses =
      ctx_.log_losses && faulted_ && replay_losses == nullptr;
  util::BinStream record;
  util::BinStream replay(replay_losses == nullptr ? std::string()
                                                  : *replay_losses);

  const std::span<const std::int32_t> capacity(ctx_.static_capacity);
  plan_.rebind(inst.graph(), capacity);
  sim::StepView view(inst, possession_, possession_,
                     needs_aggregates_ ? &aggregates_ : nullptr, nullptr,
                     ctx_.knowledge, step_, capacity);
  // Shard-local rows behind the row map, independent per-vertex planning.
  view.set_row_map(row_map_);
  policy_->plan_shard(view, plan_, owned_);
  validate_shard_sends(plan_.sends());

  // Wire counters and channel loss, then route surviving deliveries to
  // the destination vertex's owning shard.  Loss decisions are derived
  // per (step, arc), so querying only this shard's sends — in any
  // order — reproduces the single-process loss trace exactly.
  step_moves_ = 0;
  step_lost_ = 0;
  local_deliv_.clear();
  for (auto& routed : deliv_for_) routed.clear();
  const std::span<core::ArcSend> sends = plan_.sends();
  if (replay_losses != nullptr && faulted_)
    replay.require(replay.get_varint("loss_record.sends") == sends.size(),
                   "loss_record.sends",
                   "send count does not match the replayed plan");
  if (log_losses) record.put_varint(sends.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    core::ArcSend& send = sends[i];
    const Arc& arc = inst.graph().arc(send.arc);
    const auto count = static_cast<std::int64_t>(send.tokens.count());
    step_moves_ += count;
    sent_by_[static_cast<std::size_t>(arc.from)] += count;
    if (faulted_) {
      if (replay_losses != nullptr) {
        util::get_token_set_into(replay, "loss_record.lost", lost_);
      } else {
        lost_.clear();
        ctx_.sim.faults->lost(step_, send.arc, send.tokens, lost_);
      }
      lost_ &= send.tokens;  // a model may only lose what was sent
      if (log_losses) util::put_token_set(record, lost_);
      const auto lost_count = static_cast<std::int64_t>(lost_.count());
      if (lost_count > 0) {
        step_lost_ += lost_count;
        send.tokens -= lost_;
      }
    }
    if (send.tokens.empty()) continue;
    const std::int32_t owner =
        ctx_.partition->shard_of[static_cast<std::size_t>(arc.to)];
    if (owner == shard_)
      local_deliv_.push_back(static_cast<std::uint32_t>(i));
    else
      deliv_for_[static_cast<std::size_t>(owner)].push_back(
          static_cast<std::uint32_t>(i));
  }
  if (replay_losses != nullptr && faulted_)
    replay.require(replay.exhausted(), "loss_record", "trailing bytes");
  if (log_losses) loss_record_ = std::move(record).take();

  out.assign(static_cast<std::size_t>(num_shards_), {});
  for (std::int32_t p = 0; p < num_shards_; ++p) {
    if (p == shard_) continue;
    util::BinStream msg;
    msg.put_bool(plan_.empty());
    msg.put_bool(plan_.idle_marked());
    msg.put_varint(static_cast<std::uint64_t>(step_moves_));
    msg.put_varint(static_cast<std::uint64_t>(step_lost_));
    const auto& routed = deliv_for_[static_cast<std::size_t>(p)];
    msg.put_varint(routed.size());
    for (std::uint32_t i : routed) {
      msg.put_varint(static_cast<std::uint64_t>(sends[i].arc));
      util::put_token_set(msg, sends[i].tokens);
    }
    out[static_cast<std::size_t>(p)] = std::move(msg).take();
    bytes_sent_ +=
        static_cast<std::int64_t>(out[static_cast<std::size_t>(p)].size());
  }
}

void ShardWorker::deliver(VertexId to, TokenSetView tokens) {
  const auto k = owned_index_[static_cast<std::size_t>(to)];
  OCD_ASSERT_MSG(k >= 0, "delivery routed to a non-owner shard");
  const auto slot = static_cast<std::size_t>(k);
  const auto row = static_cast<std::size_t>(
      row_map_[static_cast<std::size_t>(to)]);
  const MutableTokenSetView uni = uni_.row(slot);
  if (!touched_flag_[slot]) {
    touched_flag_[slot] = 1;
    touched_.push_back(k);
    uni.clear();
  }
  // Fused kernel: fresh = tokens - possession, possession |= tokens,
  // uni |= fresh, one pass.  Apply order across deliveries is
  // irrelevant: per destination, the useful total telescopes to
  // |union of sends - possession| and possession ends at the union.
  step_useful_ += static_cast<std::int64_t>(
      MutableTokenSetView::apply_fresh_union_merge(possession_.row(row), uni,
                                                   tokens, fresh_));
}

void ShardWorker::phase_apply(const std::vector<std::string>& in,
                              std::vector<std::string>& out) {
  const core::Instance& inst = *ctx_.instance;
  bool global_empty = plan_.empty();
  bool any_idle = plan_.idle_marked();
  global_moves_ = step_moves_;
  global_lost_ = step_lost_;
  step_useful_ = 0;
  touched_.clear();

  const std::span<const core::ArcSend> sends = plan_.sends();
  for (std::uint32_t i : local_deliv_)
    deliver(inst.graph().arc(sends[i].arc).to, sends[i].tokens);

  for (std::int32_t p = 0; p < num_shards_; ++p) {
    if (p == shard_) continue;
    bytes_received_ +=
        static_cast<std::int64_t>(in[static_cast<std::size_t>(p)].size());
    util::BinStream msg(in[static_cast<std::size_t>(p)]);
    const bool peer_empty = msg.get_bool("plan.empty");
    const bool peer_idle = msg.get_bool("plan.idle");
    global_empty = global_empty && peer_empty;
    any_idle = any_idle || peer_idle;
    global_moves_ += static_cast<std::int64_t>(msg.get_varint("plan.moves"));
    global_lost_ += static_cast<std::int64_t>(msg.get_varint("plan.lost"));
    const std::uint64_t deliveries = msg.get_varint("plan.deliveries");
    for (std::uint64_t j = 0; j < deliveries; ++j) {
      const auto arc_id =
          static_cast<std::int64_t>(msg.get_varint("delivery.arc"));
      msg.require(arc_id >= 0 && arc_id < inst.graph().num_arcs(),
                  "delivery.arc", "arc id out of range");
      util::get_token_set_into(msg, "delivery.tokens", msg_tokens_);
      deliver(inst.graph().arc(static_cast<ArcId>(arc_id)).to, msg_tokens_);
    }
    msg.require(msg.exhausted(), "plan", "trailing bytes");
  }
  // Stall is decided from the round-1 flags alone, so every shard knows
  // it here; commit acts on it after round 2 keeps the transports in
  // lockstep (a stalled step carries no deliveries, so nothing above
  // mutated state).
  pending_stall_ = global_empty && !any_idle;

  // Post-delivery bookkeeping for the owned vertices that gained
  // tokens: satisfaction, completion steps, aggregate deltas.
  if (needs_aggregates_) {
    std::fill(dh_.begin(), dh_.end(), 0);
    std::fill(dn_.begin(), dn_.end(), 0);
  }
  for (std::int32_t k : touched_) {
    const auto slot = static_cast<std::size_t>(k);
    const TokenSetView uni = uni_.row(slot);
    if (uni.empty()) continue;  // all deliveries were redundant
    const VertexId v = owned_[slot];
    if (needs_aggregates_) {
      const TokenSet& want = inst.want(v);
      uni.for_each([&](TokenId t) {
        const auto ti = static_cast<std::size_t>(t);
        ++dh_[ti];
        if (want.test(t)) --dn_[ti];
      });
    }
    if (satisfied_[slot] == 0 &&
        inst.want(v).is_subset_of(possession_.row(static_cast<std::size_t>(
            row_map_[static_cast<std::size_t>(v)])))) {
      satisfied_[slot] = 1;
      completion_[slot] = step_ + 1;  // recorded after the step commits
      --local_unsatisfied_;
    }
  }

  out.assign(static_cast<std::size_t>(num_shards_), {});
  for (std::int32_t p = 0; p < num_shards_; ++p) {
    if (p == shard_) continue;
    util::BinStream msg;
    msg.put_varint(static_cast<std::uint64_t>(step_useful_));
    msg.put_varint(static_cast<std::uint64_t>(local_unsatisfied_));
    if (needs_aggregates_) {
      for (std::int64_t d : dh_) msg.put_varint_signed(d);
      for (std::int64_t d : dn_) msg.put_varint_signed(d);
    }
    const auto& subscribers = out_ghost_[static_cast<std::size_t>(p)];
    std::uint64_t updates = 0;
    for (VertexId v : subscribers) {
      const auto slot = static_cast<std::size_t>(
          owned_index_[static_cast<std::size_t>(v)]);
      if (touched_flag_[slot] && !uni_.row(slot).empty()) ++updates;
    }
    msg.put_varint(updates);
    for (VertexId v : subscribers) {
      const auto slot = static_cast<std::size_t>(
          owned_index_[static_cast<std::size_t>(v)]);
      if (!touched_flag_[slot] || uni_.row(slot).empty()) continue;
      msg.put_varint(static_cast<std::uint64_t>(v));
      util::put_token_set(msg, uni_.row(slot));
    }
    out[static_cast<std::size_t>(p)] = std::move(msg).take();
    bytes_sent_ +=
        static_cast<std::int64_t>(out[static_cast<std::size_t>(p)].size());
  }
  for (std::int32_t k : touched_) touched_flag_[static_cast<std::size_t>(k)] = 0;
}

void ShardWorker::phase_commit(const std::vector<std::string>& in) {
  const auto n = static_cast<std::int64_t>(ctx_.instance->num_vertices());
  std::int64_t global_useful = step_useful_;
  std::int64_t total_unsatisfied = local_unsatisfied_;
  for (std::int32_t p = 0; p < num_shards_; ++p) {
    if (p == shard_) continue;
    bytes_received_ +=
        static_cast<std::int64_t>(in[static_cast<std::size_t>(p)].size());
    util::BinStream msg(in[static_cast<std::size_t>(p)]);
    global_useful += static_cast<std::int64_t>(msg.get_varint("apply.useful"));
    total_unsatisfied +=
        static_cast<std::int64_t>(msg.get_varint("apply.unsatisfied"));
    if (needs_aggregates_) {
      for (std::int64_t& d : dh_) d += msg.get_varint_signed("apply.dh");
      for (std::int64_t& d : dn_) d += msg.get_varint_signed("apply.dn");
    }
    const std::uint64_t updates = msg.get_varint("apply.ghosts");
    for (std::uint64_t j = 0; j < updates; ++j) {
      const auto v = static_cast<std::int64_t>(msg.get_varint("ghost.vertex"));
      msg.require(v >= 0 && v < n &&
                      row_map_[static_cast<std::size_t>(v)] >= 0,
                  "ghost.vertex", "not a local vertex of this shard");
      util::get_token_set_into(msg, "ghost.tokens", msg_tokens_);
      possession_.row(static_cast<std::size_t>(
          row_map_[static_cast<std::size_t>(v)])) |= msg_tokens_;
    }
    msg.require(msg.exhausted(), "apply", "trailing bytes");
  }

  if (pending_stall_) {
    // Mirrors the simulator: a stalled step is not recorded — no step
    // increment, no per-step series entry, no schedule timestep.
    stalled_ = true;
    running_ = false;
    return;
  }

  if (needs_aggregates_) {
    for (std::size_t t = 0; t < dh_.size(); ++t) {
      aggregates_.holders[t] += static_cast<std::int32_t>(dh_[t]);
      aggregates_.need[t] += static_cast<std::int32_t>(dn_[t]);
    }
  }

  if (ctx_.sim.record_schedule) {
    core::Timestep timestep;
    for (const core::ArcSend& send : plan_.sends()) {
      if (send.tokens.empty()) continue;
      timestep.sends().push_back(send);
    }
    schedule_.append(std::move(timestep));
  }

  if (shard_ == 0) {
    moves_per_step_.push_back(global_moves_);
    lost_per_step_.push_back(global_lost_);
    useful_total_ += global_useful;
    lost_total_ += global_lost_;
  }

  ++step_;
  unsatisfied_ = total_unsatisfied;
  if (global_useful > 0) {
    no_progress_ = 0;
  } else if (++no_progress_ >= ctx_.watchdog_window &&
             ctx_.watchdog_window > 0 && unsatisfied_ > 0) {
    watchdog_hit_ = true;
    running_ = false;
    return;
  }
  running_ = step_ < ctx_.sim.max_steps && unsatisfied_ > 0;
}

sim::Termination ShardWorker::termination() const {
  if (stalled_) return sim::Termination::kPolicyStalled;
  if (watchdog_hit_) return sim::Termination::kNoProgress;
  return unsatisfied_ == 0 ? sim::Termination::kSatisfied
                           : sim::Termination::kMaxSteps;
}

std::string ShardWorker::finish_fragment() {
  // Lifecycle honesty: policies get their end-of-run hook even though
  // no supported policy folds stats there today.
  sim::RunStats scratch;
  policy_->finish_run(scratch);

  util::BinStream frag;
  frag.put_u8(static_cast<std::uint8_t>(termination()));
  frag.put_varint(static_cast<std::uint64_t>(step_));
  frag.put_varint(static_cast<std::uint64_t>(unsatisfied_));
  frag.put_varint(static_cast<std::uint64_t>(bytes_sent_));
  frag.put_varint(static_cast<std::uint64_t>(bytes_received_));
  if (shard_ == 0) {
    frag.put_varint(moves_per_step_.size());
    for (std::int64_t x : moves_per_step_)
      frag.put_varint(static_cast<std::uint64_t>(x));
    frag.put_varint(lost_per_step_.size());
    for (std::int64_t x : lost_per_step_)
      frag.put_varint(static_cast<std::uint64_t>(x));
    frag.put_varint(static_cast<std::uint64_t>(useful_total_));
    frag.put_varint(static_cast<std::uint64_t>(lost_total_));
  }
  std::uint64_t completed = 0;
  for (std::int64_t c : completion_)
    if (c >= 0) ++completed;
  frag.put_varint(completed);
  for (std::size_t k = 0; k < completion_.size(); ++k) {
    if (completion_[k] < 0) continue;
    frag.put_varint(static_cast<std::uint64_t>(owned_[k]));
    frag.put_varint(static_cast<std::uint64_t>(completion_[k]));
  }
  std::uint64_t senders = 0;
  for (std::int64_t c : sent_by_)
    if (c != 0) ++senders;
  frag.put_varint(senders);
  for (std::size_t v = 0; v < sent_by_.size(); ++v) {
    if (sent_by_[v] == 0) continue;
    frag.put_varint(static_cast<std::uint64_t>(v));
    frag.put_varint(static_cast<std::uint64_t>(sent_by_[v]));
  }
  frag.put_bool(ctx_.sim.record_schedule);
  if (ctx_.sim.record_schedule) util::put_schedule(frag, schedule_);
  return std::move(frag).take();
}

std::string ShardWorker::save_checkpoint() const {
  Checkpoint c;
  c.shard = shard_;
  c.num_shards = num_shards_;
  c.step = step_;
  c.fault_cursor = step_;  // begin_step has run once per committed step
  c.unsatisfied = unsatisfied_;
  c.local_unsatisfied = local_unsatisfied_;
  c.no_progress = no_progress_;
  c.bytes_sent = bytes_sent_;
  c.bytes_received = bytes_received_;
  c.possession = possession_;
  c.satisfied = satisfied_;
  c.completion = completion_;
  for (std::size_t v = 0; v < sent_by_.size(); ++v)
    if (sent_by_[v] != 0)
      c.sent_by.emplace_back(static_cast<std::int64_t>(v), sent_by_[v]);
  if (needs_aggregates_) {
    c.holders = aggregates_.holders;
    c.need = aggregates_.need;
  }
  util::BinStream policy_state;
  policy_->save_state(policy_state);
  c.policy_state = std::move(policy_state).take();
  if (shard_ == 0) {
    c.moves_per_step = moves_per_step_;
    c.lost_per_step = lost_per_step_;
    c.useful_total = useful_total_;
    c.lost_total = lost_total_;
  }
  c.has_schedule = ctx_.sim.record_schedule;
  if (c.has_schedule) c.schedule = schedule_;
  util::BinStream out;
  put_checkpoint(out, c);
  return std::move(out).take();
}

void ShardWorker::restore_checkpoint(const std::string& bytes) {
  util::BinStream in(bytes);
  Checkpoint c = get_checkpoint(in, "checkpoint", shard_);
  in.require(in.exhausted(), "checkpoint", "trailing bytes");
  in.require(c.num_shards == num_shards_, "checkpoint.num_shards",
             "shard count does not match this run");
  in.require(c.possession.rows() == possession_.rows() &&
                 c.possession.universe_size() == possession_.universe_size(),
             "checkpoint.possession", "row layout does not match this shard");
  in.require(c.satisfied.size() == satisfied_.size(), "checkpoint.satisfied",
             "owned slot count does not match this shard");
  in.require(c.step <= ctx_.sim.max_steps, "checkpoint.step",
             "beyond max_steps");
  in.require(c.holders.empty() == !needs_aggregates_,
             "checkpoint.has_aggregates",
             "aggregate presence does not match the policy");
  in.require(c.has_schedule == ctx_.sim.record_schedule,
             "checkpoint.has_schedule",
             "schedule presence does not match the run options");
  if (c.has_schedule)
    in.require(c.schedule.steps().size() == static_cast<std::size_t>(c.step),
               "checkpoint.schedule", "length != committed steps");
  const auto n = static_cast<std::int64_t>(sent_by_.size());
  for (const auto& [vertex, count] : c.sent_by)
    in.require(vertex < n, "checkpoint.sender.vertex",
               "vertex id out of range");

  possession_ = std::move(c.possession);
  satisfied_ = std::move(c.satisfied);
  completion_ = std::move(c.completion);
  std::fill(sent_by_.begin(), sent_by_.end(), 0);
  for (const auto& [vertex, count] : c.sent_by)
    sent_by_[static_cast<std::size_t>(vertex)] = count;
  if (needs_aggregates_) {
    aggregates_.holders = std::move(c.holders);
    aggregates_.need = std::move(c.need);
  }
  step_ = c.step;
  unsatisfied_ = c.unsatisfied;
  local_unsatisfied_ = c.local_unsatisfied;
  no_progress_ = c.no_progress;
  bytes_sent_ = c.bytes_sent;
  bytes_received_ = c.bytes_received;
  stalled_ = false;
  watchdog_hit_ = false;
  pending_stall_ = false;
  running_ = step_ < ctx_.sim.max_steps && unsatisfied_ > 0;
  util::BinStream policy_state(std::move(c.policy_state));
  policy_->load_state(policy_state);
  policy_state.require(policy_state.exhausted(), "checkpoint.policy_state",
                       "trailing bytes");
  if (shard_ == 0) {
    moves_per_step_ = std::move(c.moves_per_step);
    lost_per_step_ = std::move(c.lost_per_step);
    useful_total_ = c.useful_total;
    lost_total_ = c.lost_total;
  }
  if (ctx_.sim.record_schedule) schedule_ = std::move(c.schedule);
  // A respawned forked worker inherited the parent's reset-state fault
  // model copy-on-write; fast-forward the per-arc chains to the cursor.
  // In-process workers share the live model and must not touch it —
  // replay reads the recorded loss traces instead.
  if (faulted_ && ctx_.worker_advances_faults)
    for (std::int64_t k = 0; k < c.fault_cursor; ++k)
      ctx_.sim.faults->begin_step(k, ctx_.instance->graph());
}

// ---------------------------------------------------------------------
// run_sharded
// ---------------------------------------------------------------------

std::int32_t resolve_num_shards(std::int32_t requested) {
  if (requested > 0) return requested;
  if (requested < 0)
    throw Error("num_shards must be >= 0, got " + std::to_string(requested));
  const char* env = std::getenv("OCD_SHARDS");
  if (env == nullptr) return 1;
  return static_cast<std::int32_t>(util::parse_env_int("OCD_SHARDS", env));
}

namespace {

/// Decoded finish fragment of one shard.
struct Fragment {
  sim::Termination termination = sim::Termination::kSatisfied;
  std::int64_t steps = 0;
  std::int64_t unsatisfied = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::vector<std::int64_t> moves_per_step;  // shard 0 only
  std::vector<std::int64_t> lost_per_step;   // shard 0 only
  std::int64_t useful_total = 0;             // shard 0 only
  std::int64_t lost_total = 0;               // shard 0 only
  std::vector<std::pair<VertexId, std::int64_t>> completion;
  std::vector<std::pair<VertexId, std::int64_t>> sent_by;
  bool has_schedule = false;
  core::Schedule schedule;
};

Fragment decode_fragment(const std::string& bytes, bool shard0) {
  util::BinStream frag(bytes);
  Fragment out;
  const std::uint8_t t = frag.get_u8("fragment.termination");
  frag.require(t <= static_cast<std::uint8_t>(sim::Termination::kMaxSteps),
               "fragment.termination", "unknown termination value");
  out.termination = static_cast<sim::Termination>(t);
  out.steps = static_cast<std::int64_t>(frag.get_varint("fragment.steps"));
  out.unsatisfied =
      static_cast<std::int64_t>(frag.get_varint("fragment.unsatisfied"));
  out.bytes_sent =
      static_cast<std::int64_t>(frag.get_varint("fragment.bytes_sent"));
  out.bytes_received =
      static_cast<std::int64_t>(frag.get_varint("fragment.bytes_received"));
  if (shard0) {
    const std::uint64_t nm = frag.get_varint("fragment.moves_per_step");
    frag.require(nm == static_cast<std::uint64_t>(out.steps),
                 "fragment.moves_per_step", "length != steps");
    out.moves_per_step.reserve(nm);
    for (std::uint64_t i = 0; i < nm; ++i)
      out.moves_per_step.push_back(
          static_cast<std::int64_t>(frag.get_varint("fragment.moves")));
    const std::uint64_t nl = frag.get_varint("fragment.lost_per_step");
    frag.require(nl == nm, "fragment.lost_per_step", "length != steps");
    out.lost_per_step.reserve(nl);
    for (std::uint64_t i = 0; i < nl; ++i)
      out.lost_per_step.push_back(
          static_cast<std::int64_t>(frag.get_varint("fragment.lost")));
    out.useful_total =
        static_cast<std::int64_t>(frag.get_varint("fragment.useful"));
    out.lost_total =
        static_cast<std::int64_t>(frag.get_varint("fragment.lost_total"));
  }
  const std::uint64_t nc = frag.get_varint("fragment.completions");
  out.completion.reserve(nc);
  for (std::uint64_t i = 0; i < nc; ++i) {
    const auto v =
        static_cast<VertexId>(frag.get_varint("fragment.completion.vertex"));
    const auto s = static_cast<std::int64_t>(
        frag.get_varint("fragment.completion.step"));
    out.completion.emplace_back(v, s);
  }
  const std::uint64_t ns = frag.get_varint("fragment.senders");
  out.sent_by.reserve(ns);
  for (std::uint64_t i = 0; i < ns; ++i) {
    const auto v =
        static_cast<VertexId>(frag.get_varint("fragment.sender.vertex"));
    const auto c =
        static_cast<std::int64_t>(frag.get_varint("fragment.sender.count"));
    out.sent_by.emplace_back(v, c);
  }
  out.has_schedule = frag.get_bool("fragment.has_schedule");
  if (out.has_schedule)
    out.schedule = util::get_schedule(frag, "fragment.schedule");
  frag.require(frag.exhausted(), "fragment", "trailing bytes");
  return out;
}

sim::RunResult merge_fragments(const core::Instance& inst,
                               std::string_view policy_name,
                               const std::vector<std::string>& encoded) {
  const auto num_shards = static_cast<std::int32_t>(encoded.size());
  std::vector<Fragment> frags;
  frags.reserve(encoded.size());
  for (std::int32_t s = 0; s < num_shards; ++s)
    frags.push_back(decode_fragment(encoded[static_cast<std::size_t>(s)],
                                    s == 0));
  for (std::int32_t s = 1; s < num_shards; ++s) {
    OCD_ASSERT_MSG(frags[static_cast<std::size_t>(s)].termination ==
                           frags[0].termination &&
                       frags[static_cast<std::size_t>(s)].steps ==
                           frags[0].steps &&
                       frags[static_cast<std::size_t>(s)].unsatisfied ==
                           frags[0].unsatisfied,
                   "shards disagree on the run outcome");
  }

  sim::RunResult result;
  const Fragment& lead = frags[0];
  result.steps = lead.steps;
  result.termination = lead.termination;
  result.success = lead.unsatisfied == 0;
  result.stats.moves_per_step = lead.moves_per_step;
  result.stats.lost_per_step = lead.lost_per_step;
  result.stats.useful_moves = lead.useful_total;
  result.stats.lost_moves = lead.lost_total;
  std::int64_t total_moves = 0;
  for (std::int64_t x : lead.moves_per_step) total_moves += x;
  result.stats.redundant_moves =
      total_moves - lead.useful_total - lead.lost_total;
  for (const Fragment& frag : frags) {
    result.stats.shard_bytes_sent += frag.bytes_sent;
    result.stats.shard_bytes_received += frag.bytes_received;
  }

  const auto n = static_cast<std::size_t>(inst.num_vertices());
  result.stats.completion_step.assign(n, -1);
  result.stats.sent_by_vertex.assign(n, 0);
  for (const Fragment& frag : frags) {
    for (const auto& [v, s] : frag.completion)
      result.stats.completion_step[static_cast<std::size_t>(v)] = s;
    // Upload counts are summed: under the "local" policy a sender's
    // out-arcs can be planned by several receiver-owning shards.
    for (const auto& [v, c] : frag.sent_by)
      result.stats.sent_by_vertex[static_cast<std::size_t>(v)] += c;
  }

  if (lead.has_schedule) {
    // Fragments hold disjoint send subsets of each timestep.  Restore
    // the single-process order: plan_vertex policies emit grouped by
    // sender (each sender lives wholly in one fragment, so a stable
    // sort by sender reassembles vertex-ascending plan order); "local"
    // emits arc-ascending globally.
    const bool arc_ordered = policy_name == "local";
    const Digraph& graph = inst.graph();
    for (std::int64_t i = 0; i < lead.steps; ++i) {
      core::Timestep merged;
      for (Fragment& frag : frags) {
        auto& sends =
            frag.schedule.steps()[static_cast<std::size_t>(i)].sends();
        for (core::ArcSend& send : sends)
          merged.sends().push_back(std::move(send));
      }
      if (arc_ordered) {
        std::sort(merged.sends().begin(), merged.sends().end(),
                  [](const core::ArcSend& a, const core::ArcSend& b) {
                    return a.arc < b.arc;
                  });
      } else {
        std::stable_sort(merged.sends().begin(), merged.sends().end(),
                         [&graph](const core::ArcSend& a,
                                  const core::ArcSend& b) {
                           return graph.arc(a.arc).from <
                                  graph.arc(b.arc).from;
                         });
      }
      result.schedule.append(std::move(merged));
    }
  }

  result.bandwidth = result.stats.total_moves();
  OCD_ENSURES(result.stats.consistent_with_steps(result.steps));
  return result;
}

}  // namespace

sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options,
                           const Partition& partition) {
  validate_envelope(policy_name, options.sim);
  instance.validate();
  const std::int32_t num_shards = resolve_num_shards(options.num_shards);
  if (partition.num_shards != num_shards)
    throw Error("partition has " + std::to_string(partition.num_shards) +
                " shards but options resolve to " +
                std::to_string(num_shards));
  OCD_EXPECTS(partition.shard_of.size() ==
              static_cast<std::size_t>(instance.num_vertices()));

  Stopwatch timer;
  RunContext ctx;
  ctx.instance = &instance;
  ctx.partition = &partition;
  ctx.policy_name = std::string(policy_name);
  ctx.sim = options.sim;
  ctx.knowledge = heuristics::make_policy(policy_name)->knowledge_class();
  ctx.watchdog_window = options.sim.no_progress_window;
  if (ctx.watchdog_window == 0)
    ctx.watchdog_window =
        options.sim.faults != nullptr ? kDefaultNoProgressWindow : -1;
  ctx.worker_advances_faults = options.transport == TransportKind::kForked;
  if (options.barrier_timeout_ms <= 0)
    throw Error("ShardOptions.barrier_timeout_ms must be positive, got " +
                std::to_string(options.barrier_timeout_ms));
  if (options.recovery.max_respawns < 0)
    throw Error("RecoveryOptions.max_respawns must be >= 0, got " +
                std::to_string(options.recovery.max_respawns));
  ctx.barrier_timeout_ms = options.barrier_timeout_ms;
  ctx.checkpoint_interval =
      resolve_checkpoint_interval(options.recovery.checkpoint_interval);
  ctx.max_respawns = options.recovery.max_respawns;
  ctx.crash_plan = options.recovery.crash_plan;
  ctx.recovery_armed =
      ctx.checkpoint_interval > 0 || ctx.crash_plan != nullptr;
  ctx.log_losses = ctx.recovery_armed && options.sim.faults != nullptr &&
                   options.transport == TransportKind::kInProcess;
  ctx.static_capacity.resize(
      static_cast<std::size_t>(instance.graph().num_arcs()));
  for (ArcId a = 0; a < instance.graph().num_arcs(); ++a)
    ctx.static_capacity[static_cast<std::size_t>(a)] =
        instance.graph().arc(a).capacity;
  // One reset in the parent: the in-process workers share the model;
  // forked children inherit the reset state copy-on-write and advance
  // their private copies in lockstep.
  if (options.sim.faults != nullptr)
    options.sim.faults->reset(instance, options.sim.seed);

  TransportResult transported;
  if (options.transport == TransportKind::kInProcess) {
    InProcessTransport transport;
    transported = transport.run(ctx);
  } else {
    ForkTransport transport;
    transported = transport.run(ctx);
  }

  sim::RunResult result =
      merge_fragments(instance, policy_name, transported.fragments);
  result.stats.worker_crashes = transported.recovery.worker_crashes;
  result.stats.recoveries = transported.recovery.recoveries;
  result.stats.replayed_steps = transported.recovery.replayed_steps;
  result.stats.checkpoint_bytes = transported.recovery.checkpoint_bytes;
  result.stats.wall_seconds = timer.seconds();
  return result;
}

sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options) {
  const std::int32_t num_shards = resolve_num_shards(options.num_shards);
  if (num_shards > instance.num_vertices())
    throw Error("num_shards (" + std::to_string(num_shards) +
                ") exceeds the vertex count (" +
                std::to_string(instance.num_vertices()) + ")");
  PartitionOptions part_options;
  part_options.num_shards = num_shards;
  part_options.balance_eps = resolve_balance_eps(options.balance_eps);
  // A relaxed band is only worth its imbalance if the flow stage gets
  // to spend it on the cut; a resolved 0 keeps the historical partition
  // bit-for-bit.
  part_options.flow_refine = part_options.balance_eps > 0;
  const Partition partition =
      partition_vertices(instance.graph(), part_options);
  ShardOptions resolved = options;
  resolved.num_shards = num_shards;
  resolved.balance_eps = part_options.balance_eps;
  return run_sharded(instance, policy_name, resolved, partition);
}

}  // namespace ocd::shard
