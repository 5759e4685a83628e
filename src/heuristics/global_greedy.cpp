#include "ocd/heuristics/global_greedy.hpp"

#include <algorithm>
#include <array>

#include "ocd/util/binstream.hpp"

namespace ocd::heuristics {

namespace {

/// One arc's fused candidate scan against (cand, out, wave_ok):
/// `wanted` is the first wanted in-cap candidate (rank), `flood` the
/// first in-cap candidate of any kind, `cand_left` ORs every candidate
/// word seen before the wanted hit — nonzero means candidates remain
/// (only meaningful when both picks are -1, i.e. the scan ran through).
struct ArcScan {
  TokenId wanted = -1;
  TokenId flood = -1;
  std::uint64_t cand_left = 0;
};

ArcScan scan_arc(const std::uint64_t* cand_w, const std::uint64_t* out_w,
                 const std::uint64_t* ok_w, std::size_t num_words) {
  ArcScan r;
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    const std::uint64_t cw = cand_w[wi];
    r.cand_left |= cw;
    const std::uint64_t in_cap = cw & ok_w[wi];
    if (in_cap == 0) continue;
    const std::uint64_t wanted = in_cap & out_w[wi];
    if (wanted != 0) {
      r.wanted = static_cast<TokenId>(
          wi * 64 + static_cast<std::size_t>(__builtin_ctzll(wanted)));
      return r;
    }
    if (r.flood < 0)
      r.flood = static_cast<TokenId>(
          wi * 64 + static_cast<std::size_t>(__builtin_ctzll(in_cap)));
  }
  return r;
}

}  // namespace

void GlobalGreedyPolicy::reset(const core::Instance& instance,
                               std::uint64_t seed) {
  rng_ = Rng(seed);
  const auto n = static_cast<std::size_t>(instance.graph().num_vertices());
  const auto universe = static_cast<std::size_t>(instance.num_tokens());
  const auto num_arcs = static_cast<std::size_t>(instance.graph().num_arcs());
  ranked_poss_.reset(n, universe);
  candidates_.reset(num_arcs, universe);
  outstanding_.reset(n, universe);
  remaining_.assign(num_arcs, 0);
  grant_count_.assign(universe, 0);
  full_ = TokenSet::full(universe);
  wave_ok_ = TokenSet(universe);
  capped_ = TokenSet(universe);
  active_.clear();
  active_.reserve(num_arcs);
  asleep_.assign(num_arcs, 0);
}

// Coordinated greedy over (arc, token) pairs.  Assignment proceeds in
// passes; during pass w a token may hold at most w+1 grants, which
// spreads *different* rare tokens across the arcs (diversity) instead of
// pushing the single rarest token everywhere.  Wanted deliveries are
// preferred over pure diversity floods at every pick, and a token is
// never delivered twice to the same vertex (the coordination the paper
// describes).
//
// All per-step sets live in rank space (bit r = token at rarity rank r,
// see ocd/util/rarity.hpp), so each pick is a first-set-bit over
// `cand_words & wanted_words & wave_ok_words` instead of an O(universe)
// scan of the rarity order.  Per-arc candidate sets are maintained
// incrementally: granting a token to a vertex clears its bit from every
// in-arc of that vertex, and arcs whose candidates or capacity are
// exhausted leave the active list for good (both only shrink).
//
// Every working set lives in the policy's scratch members (sized in
// reset(), overwritten in place here), so a steady-state step is
// allocation-free.
void GlobalGreedyPolicy::plan_step(const sim::StepView& view,
                                   sim::StepPlan& plan) {
  const Digraph& graph = view.graph();
  const core::Instance& inst = view.instance();
  const util::TokenMatrix& possession = view.global_possession();
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  const auto num_arcs = static_cast<std::size_t>(graph.num_arcs());
  const auto universe = static_cast<std::size_t>(view.num_tokens());

  // Possession permuted once per step; every other rank-space set is a
  // word-parallel combination of these.
  ranker_.assign_by_rarity(view.aggregate_holders(), &rng_);
  for (std::size_t vi = 0; vi < n; ++vi)
    ranker_.to_ranks_into(possession.row(vi), ranked_poss_.row(vi));

  // Per-arc candidates (tail has, head lacks) and remaining capacity.
  bool anything = false;
  for (std::size_t ai = 0; ai < num_arcs; ++ai) {
    const Arc& arc = graph.arc(static_cast<ArcId>(ai));
    MutableTokenSetView cand = candidates_.row(ai);
    cand.assign(ranked_poss_.row(static_cast<std::size_t>(arc.from)));
    cand -= ranked_poss_.row(static_cast<std::size_t>(arc.to));
    anything = anything || !cand.empty();
    remaining_[ai] = view.capacity(static_cast<ArcId>(ai));
  }
  if (!anything) return;

  // Outstanding wants per vertex, fixed at step start.
  for (std::size_t vi = 0; vi < n; ++vi) {
    MutableTokenSetView out = outstanding_.row(vi);
    ranker_.to_ranks_into(inst.want(static_cast<VertexId>(vi)), out);
    out -= ranked_poss_.row(vi);
  }

  // wave_ok holds the ranks whose grant count is still <= wave; ranks
  // pushed over the cap park in `capped` until the next wave relaxes it.
  std::fill(grant_count_.begin(), grant_count_.end(), 0);
  wave_ok_.assign(full_);
  capped_.clear();

  active_.clear();
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const auto ai = static_cast<std::size_t>(a);
    if (remaining_[ai] > 0 && !candidates_.row(ai).empty())
      active_.push_back(a);
  }

  // An arc whose candidates are all over the duplication cap cannot pick
  // again until the cap relaxes (its candidate set and wave_ok only
  // shrink within a wave), so instead of rescanning it every pass it
  // falls asleep and skips to the next relaxation: one flag check per
  // pass instead of a full word scan.  The pick sequence — and hence the
  // schedule — is identical to rescanning everything, because a sleeping
  // arc could never have picked in the passes it skips, and it keeps its
  // slot in the list so the scan order never changes.
  const std::size_t num_words = wave_ok_.words().size();
  const std::uint64_t* ok_w = wave_ok_.words().data();
  std::int32_t wave = 0;
  std::size_t awake = active_.size();
  while (!active_.empty()) {
    if (awake == 0) {
      // Every surviving arc is capped: the full rescan would be a
      // no-progress pass.  Relax the cap and wake everyone.
      ++wave;
      wave_ok_ |= capped_;
      capped_.clear();
      for (const ArcId a : active_) asleep_[static_cast<std::size_t>(a)] = 0;
      awake = active_.size();
    }

    std::size_t kept = 0;
    for (std::size_t p = 0; p < active_.size(); ++p) {
      const ArcId a = active_[p];
      const auto ai = static_cast<std::size_t>(a);
      if (asleep_[ai]) {
        active_[kept++] = a;
        continue;
      }
      const Arc& arc = graph.arc(a);
      const ArcScan scan = scan_arc(
          candidates_.row(ai).words_data(),
          outstanding_.row(static_cast<std::size_t>(arc.to)).words_data(),
          ok_w, num_words);
      const TokenId pick = scan.wanted >= 0 ? scan.wanted : scan.flood;

      if (pick < 0) {
        // Candidates left means they are all capped: sleep until the
        // next relaxation.  None left means the arc is done for good.
        --awake;
        if (scan.cand_left != 0) {
          asleep_[ai] = 1;
          active_[kept++] = a;
        }
        continue;
      }

      plan.send(a, ranker_.token_at(pick), universe);
      if (++grant_count_[static_cast<std::size_t>(pick)] > wave) {
        wave_ok_.reset(pick);
        capped_.set(pick);
      }
      // The head now holds (a grant of) this token: no arc into it may
      // offer the token again this step.
      for (const ArcId b : graph.in_arcs(arc.to))
        candidates_.row(static_cast<std::size_t>(b)).reset(pick);
      if (--remaining_[ai] > 0) {
        active_[kept++] = a;
      } else {
        --awake;  // capacity exhausted: the arc leaves for good
      }
    }
    active_.resize(kept);
  }
}

void GlobalGreedyPolicy::save_state(util::BinStream& out) const {
  for (std::uint64_t word : rng_.state()) out.put_u64(word);
}

void GlobalGreedyPolicy::load_state(util::BinStream& in) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = in.get_u64("global.rng");
  rng_.set_state(state);
}

}  // namespace ocd::heuristics
