#ifndef EASEML_SCHEDULER_CANDIDATE_INDEX_H_
#define EASEML_SCHEDULER_CANDIDATE_INDEX_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/exact_sum.h"
#include "common/status.h"
#include "common/tournament_tree.h"
#include "scheduler/user_state.h"

namespace easeml::scheduler {

/// Incremental candidate index: the "no scan" serving path.
///
/// The reference pick (`SchedulerPolicy::PickUser`) rescans all T tenants
/// on every `Next()` even though a `Report` changes exactly one tenant's
/// (bound, gap) summary. The index inverts that: each shard keeps a
/// monotone `TournamentTree` over its tenants' policy summaries
/// (`TenantKey` → `IndexNode`, merged with the same total-order tie-breaks
/// as the scan's folds), plus the exactly-mergeable scalar aggregates of
/// GREEDY's candidate threshold. A tenant event (`Report`, `Cancel`, arm
/// selection, retirement) refreshes ONE leaf and replays its O(log T) root
/// path; a pick reads the N shard roots in O(1) each and merges them with
/// exact, associative merges, so the result is bit-identical to the scan
/// for every shard count.
///
/// ## Per-policy keys and their invalidation contract
///
/// Every `SchedulerPolicy` consumes the index through `PickUserIndexed`;
/// the per-tenant key material each policy relies on is derived in ONE
/// place (`MakeTenantKey`) from `UserState`:
///
///   - GREEDY: (UCB bound sigma~, line-8 gap, exact-sum candidate
///     membership). The candidate threshold "bound * finite_count >= exact
///     sum" is evaluated against incrementally maintained `ExactDoubleSum`
///     aggregates — exact integer arithmetic, so adding a bound and later
///     subtracting it restores the accumulator bit-for-bit and the
///     incremental sum equals the scan's fresh accumulation exactly. The
///     line-8 argmax runs as a pruned tournament descent (candidacy is
///     monotone in the bound, so a subtree whose max bound fails the
///     threshold holds no candidate); the descent tests bounds against the
///     threshold's exact cut (`Candidacy`), one double compare per node.
///   - ROUNDROBIN / FCFS: min-id and cyclic-distance picks are answered
///     from `min_schedulable` summaries; the cursor is a QUERY parameter
///     (two O(log T) descents: min schedulable id >= cursor, else global
///     min), so advancing it never touches a leaf — the epoch-offset idea
///     with the offset applied at read time.
///   - RANDOM: per-node schedulable counts give the total for the uniform
///     draw (identical RNG stream) and rank/prefix counts let a binary
///     search recover the j-th schedulable id in global ascending order.
///   - HYBRID: delegates to the active phase (GREEDY before the freeze
///     switch, ROUNDROBIN after). Its freeze detector runs on the report
///     path (`OnOutcomeIndexed`): it merges the shard aggregates
///     (`MergedThreshold`), computes the cut once, and updates its copy
///     of the candidate set from the change log below — each changed
///     tenant's key, plus the unchanged tenants whose bound lies between
///     the previous cut and this one — instead of reading every tenant.
///     The set it keeps is the one the scan's `ComputeCandidateSet`
///     builds with one exact `CompareScaled` per tenant.
///
/// ## Change log
///
/// An index built with `log_changes` records every tenant whose key was
/// appended or refreshed, once per tenant, until `TakeChanged` hands the
/// list over and clears it. Between two HYBRID outcomes that list is
/// exactly the set of tenants whose key or best reward may have moved,
/// since every fold refreshes its tenant. Engines turn the log on for
/// HYBRID only; no other policy reads it.
///
/// Keys go stale the moment their tenant's state changes; the owning
/// selector MUST call `Refresh` after every event that touches a tenant —
/// arm selection, outcome fold, cancel, retire — before the next pick.
/// A new tenant is appended to its shard's tail (`AppendTenant`) and keeps
/// that leaf for life: retirement is one more `Refresh`, which leaves a
/// neutral leaf (never schedulable, never a candidate), so no event ever
/// moves a tenant between shards or slots.
///
/// ## External synchronization
///
/// Not thread-safe, and deliberately mutex-free: the index is engine
/// state behind the owning selector's synchronization — the caller's on
/// the base engine, the annotated lock on the sharded one (its `mu_`, an
/// `easeml::Mutex` from common/thread_annotations.h). Because the selector
/// reaches it through an owning pointer, that guarded-by relation is
/// expressed on the selector side (`EASEML_PT_GUARDED_BY`-style at the
/// owner), not here — a struct cannot name a mutex it has never heard of.
/// Every call — picks, arm selections, report and cancel folds, churn,
/// `TakeChanged` and `MergedThreshold` (which keeps its last result in the
/// index) — runs on the thread that called into the engine, one at a time.
/// Any new caller must hold that synchronization too.
class CandidateIndex {
 public:
  /// Sentinel for "no tenant": merges below as min-identity, mirroring the
  /// scan's kNoUser.
  static constexpr int kNone = std::numeric_limits<int>::max();

  /// Per-tenant key material, derived from `UserState` by `MakeTenantKey`
  /// only. `bound`/`gap` are meaningful only when `schedulable`.
  struct TenantKey {
    bool schedulable = false;    // UserState::Schedulable()
    bool uninitialized = false;  // UserState::NeedsInitialObservation()
    bool bad_policy = false;     // live tenant without confidence bounds
    double bound = 0.0;          // empirical bound sigma~ (Algorithm 2 l.6)
    double gap = 0.0;            // line-8 key: MaxUcb - best_reward
  };

  /// Tournament summary over a leaf range. All merges are exact (integer
  /// counts, min-id, strictly-greater-key argmax with lowest-id tie-break —
  /// the scan's total orders), so the root is independent of the
  /// leaf partition and grouping.
  struct IndexNode {
    int cnt_schedulable = 0;
    int min_schedulable = kNone;    // lowest schedulable tenant id
    int min_uninitialized = kNone;  // lowest id the init sweep must serve
    int min_bad_policy = kNone;     // lowest live tenant without bounds
    // Argmax pairs with the scan's -inf-sentinel fold semantics: only keys
    // strictly above -inf (never NaN) occupy a pair; ties keep the lower
    // id. id == kNone marks "no qualifying tenant in this subtree".
    double max_bound = 0.0;
    int max_bound_id = kNone;
    double max_gap = 0.0;
    int max_gap_id = kNone;

    static IndexNode MakeLeaf(int tenant, const TenantKey& key);
    static IndexNode Merge(const IndexNode& a, const IndexNode& b);
  };

  /// GREEDY's candidate-membership test, reduced to one double compare.
  /// With n >= 1 finite bounds summing exactly to S, Algorithm 2 line 7
  /// admits a finite bound b iff b * n >= S (`S.CompareScaled(b, n) >= 0`).
  /// b * n - S grows strictly with b, so the passing doubles are exactly
  /// those at or above the smallest one that passes: `cut =
  /// S.MeanCut(n)`. MeanCut pins the cut with two exact comparisons (the
  /// cut passes, its predecessor fails), so `b >= cut` IS the exact test —
  /// no rounded average is ever compared. When `all_candidates` (no
  /// finite bound exists) every schedulable tenant is a candidate and the
  /// cut is unused — the scan's fallback.
  struct Candidacy {
    double cut = 0.0;
    bool all_candidates = false;

    /// The candidacy of the threshold (sum, finite_count). Costs one
    /// MeanCut (~1 us) unless finite_count == 0, so build it only where
    /// many membership tests follow: a pruned descent, a freeze pass.
    static Candidacy Of(const ExactDoubleSum& sum, int finite_count);

    /// Algorithm 2 line 7 membership for a schedulable tenant's bound;
    /// identical to the scan's BoundIsCandidate: +inf always admits, NaN
    /// and -inf never, finite bounds by the cut. One IEEE comparison
    /// covers all four cases, because MeanCut never returns NaN or -inf:
    /// +inf >= cut always holds, NaN >= cut and -inf >= cut never do.
    bool Admits(double bound) const { return all_candidates || bound >= cut; }
  };

  /// GREEDY's phase-A statistics merged over every shard — what the scan's
  /// first pass accumulates. Counts and mins merge associatively and the
  /// bound sum is exact, so the result equals the scan's pass bit-for-bit.
  struct Threshold {
    int schedulable = 0;         // tenants a scheduler may serve now
    int min_bad_policy = kNone;  // lowest live tenant without bounds
    int finite_count = 0;        // schedulable tenants with a finite bound
    ExactDoubleSum bound_sum;    // exact sum of those finite bounds
  };

  /// Best (key, lowest-id) pair of a pruned argmax descent; `user == kNone`
  /// when no candidate key rose above the -inf sentinel.
  struct Best {
    double key = -std::numeric_limits<double>::infinity();
    int user = kNone;

    /// The scan's total order: strictly larger key wins, exact
    /// ties keep the lower id. NaN never beats anything.
    bool Beats(const Best& other) const {
      return user != kNone &&
             (other.user == kNone || key > other.key ||
              (key == other.key && user < other.user));
    }
  };

  /// An index over `num_shards` >= 1 shard trees, initially empty.
  /// `track_gap` controls whether keys carry the line-8 gap — the one
  /// O(K) derivation (the batched MaxUcb read). Only GREEDY/HYBRID picks
  /// consume it; engines serving the other schedulers pass false so the
  /// per-event refresh stays O(log T) with no posterior reads at all.
  /// `log_changes` turns on the change log (see the class comment), which
  /// only HYBRID's freeze detector consumes.
  explicit CandidateIndex(int num_shards, bool track_gap = true,
                          bool log_changes = false);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Places a NEW tenant at the tail of `shard` in O(log T) amortized —
  /// valid because tenant ids grow monotonically, so a new id is above
  /// every placed id. The only placement path: both engines add this way,
  /// and the tenant stays on that leaf for life.
  void AppendTenant(int shard, const UserState& user);

  /// Recomputes `user`'s key (the only O(K) step: the batched MaxUcb
  /// diagnostics read) and replays its leaf's O(log T) root path plus the
  /// shard's scalar aggregates. The tenant must have been placed
  /// (`AppendTenant`). Both calls log the tenant when the log is on.
  void Refresh(const UserState& user);

  // --- O(1) per-shard reads (merge across shards at the call site) -------
  const IndexNode& Root(int shard) const { return shards_[shard].tree.Root(); }

  // --- Cross-shard convenience reads (exact min/sum merges) --------------
  /// GREEDY's phase-A statistics over all shards, N exact merges: the one
  /// read of the threshold aggregates, shared by GREEDY's indexed pick and
  /// HYBRID's indexed freeze detector. The result is kept until the next
  /// tenant event in any shard, so a HYBRID outcome and the pick right
  /// after it pay for one merge.
  Threshold MergedThreshold() const;
  /// Lowest tenant id the initialization sweep must serve; kNone if none.
  int MinUninitialized() const;
  /// True iff any tenant is schedulable right now.
  bool AnySchedulable() const;

  // --- Pruned descents (per shard; merge across shards at the call site) --
  /// Argmax of the line-8 key over shard-local CANDIDATES, threaded through
  /// `best` so later shards prune against earlier winners. `use_gap` picks
  /// the gap key (kMaxUcbGap) vs the bound itself (kMaxEmpiricalBound).
  Best BestCandidate(int shard, const Candidacy& candidacy, bool use_gap,
                     Best best) const;

  /// Lowest candidate tenant id in `shard`; kNone if none. (The scan's
  /// min_candidate fallback for the all-keys-at--inf case.)
  int MinCandidate(int shard, const Candidacy& candidacy) const;

  /// Lowest schedulable tenant id >= `id_floor` in `shard`; kNone if none.
  /// Round-robin's cyclic pick = this at the cursor, else the global min.
  int MinSchedulableAtLeast(int shard, int id_floor) const;

  /// Number of schedulable tenants in `shard` with id <= `id_cap` —
  /// RANDOM's rank query for recovering the j-th schedulable id.
  int CountSchedulableLeq(int shard, int id_cap) const;

  /// The cached key for `tenant` (fresh iff the invalidation contract was
  /// honored). Valid for any id the index has ever seen.
  const TenantKey& Key(int tenant) const { return keys_[tenant]; }

  /// Whether keys carry the line-8 gap (see the constructor).
  bool track_gap() const { return track_gap_; }

  /// Whether the change log is on (see the constructor).
  bool logs_changes() const { return log_changes_; }

  /// Replaces `*out` with every tenant appended or refreshed since the
  /// last call, each once, and empties the log. The order is by shard,
  /// then by first change. Always empty when the log is off.
  void TakeChanged(std::vector<int>* out);

  /// Invariant check (tests / debug builds): recomputes every key from
  /// `users` and every aggregate from scratch and compares against the
  /// incrementally maintained state — keys bit-for-bit, sums by exact
  /// comparison, every tree node re-merged. Returns Internal on the first
  /// divergence. O(T log T); never called on the serving path.
  Status Validate(const std::vector<UserState>& users) const;

  /// The placement the index currently reflects (ascending per shard);
  /// the sharded engine's ValidateIndex checks it against its placement
  /// rule.
  std::vector<std::vector<int>> Placement() const;

 private:
  struct Shard {
    TournamentTree<IndexNode> tree;
    std::vector<int> tenants;  // leaf slot -> tenant id, ascending
    // GREEDY phase-A scalar aggregates, maintained by exact +/- deltas:
    // ExactDoubleSum is exact integer arithmetic, so removals cancel
    // additions bit-for-bit and the running value always equals a fresh
    // accumulation over the current members.
    ExactDoubleSum bound_sum;
    int finite_count = 0;
    // This shard's part of the change log, in first-change order.
    std::vector<int> changed;
    // Appends and refreshes so far: MergedThreshold's staleness test.
    uint64_t events = 0;
  };

  /// MakeTenantKey with this index's gap-tracking mode (defined after the
  /// free function's declaration).
  TenantKey DeriveKey(const UserState& user) const;

  /// Counts a tenant event in `sh` and appends `id` to its change log
  /// unless the log is off or already holds it.
  void NoteEvent(Shard& sh, int id);

  bool track_gap_ = true;
  bool log_changes_ = false;
  std::vector<Shard> shards_;
  // Indexed by tenant id (ids are dense and never reused).
  std::vector<TenantKey> keys_;
  std::vector<int> shard_of_;
  std::vector<int> slot_of_;
  // 1 while the tenant sits in its shard's change log.
  std::vector<uint8_t> logged_;
  // MergedThreshold's last result and each shard's event count when it
  // was computed (empty before the first call).
  mutable Threshold merged_;
  mutable std::vector<uint64_t> merged_events_;
};

/// The ONE derivation of a tenant's index key from its runtime state; the
/// append and the incremental refresh call this, and `Validate`
/// recomputes it to catch stale leaves. `track_gap` = false skips the
/// O(K) UcbGap read (the key's gap stays -inf and never wins a tournament
/// pair) for schedulers that never consume it.
CandidateIndex::TenantKey MakeTenantKey(const UserState& user,
                                        bool track_gap = true);

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_CANDIDATE_INDEX_H_
