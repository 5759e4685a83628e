// Global (§5.1): the coordinated variant of the Local heuristic —
// "vertices have the ability to coordinate across each other at each
// timestep to ensure that they maximize diversity ... Our implementation
// of this technique applies a greedy selection algorithm over the set of
// tokens and edges, and is thus not guaranteed to maximize diversity."
//
// Knowledge class kGlobal with full per-step coordination: tokens are
// processed rarest-first; each (arc, token) assignment delivers the
// token to a vertex that does not have it and has not been granted it
// by another arc this step, so no capacity is wasted on duplicates.
// Wanted deliveries are assigned before pure diversity floods.
#pragma once

#include <cstdint>
#include <vector>

#include "ocd/sim/policy.hpp"
#include "ocd/util/rarity.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::heuristics {

class GlobalGreedyPolicy final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "global"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kGlobal;
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override;
  void save_state(util::BinStream& out) const override;
  void load_state(util::BinStream& in) override;

 private:
  Rng rng_{1};
  // Planner scratch, sized once in reset() and rewritten in place each
  // step so steady-state planning does not allocate.
  RarityRanker ranker_;
  util::TokenMatrix ranked_poss_;   ///< per-vertex possession, rank space
  util::TokenMatrix candidates_;    ///< per-arc (tail has, head lacks)
  util::TokenMatrix outstanding_;   ///< per-vertex wants still missing
  std::vector<std::int32_t> remaining_;
  std::vector<std::int32_t> grant_count_;
  TokenSet full_;     ///< all-ones mask, built once per reset
  TokenSet wave_ok_;  ///< ranks whose grant count is still <= wave
  TokenSet capped_;
  std::vector<ArcId> active_;
  std::vector<char> asleep_;  ///< capped arcs sleep until a wave relax
};

}  // namespace ocd::heuristics
