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
/// (bound, gap) summary. The index inverts that: one monotone
/// `TournamentTree` whose leaf slot is the tenant id holds every tenant's
/// policy summary (`TenantKey` → `IndexNode`, merged with the same
/// total-order tie-breaks as the scan's folds), next to a running exact
/// sum and count of GREEDY's finite bounds. A tenant event (`Report`,
/// `Cancel`, arm selection, retirement) refreshes ONE leaf and replays its
/// O(log T) root path; a pick reads the root, the sum and the count, or
/// runs one pruned O(log T) descent, and gets the scan's answer
/// bit-for-bit.
///
/// ## Per-policy keys and their invalidation contract
///
/// Every `SchedulerPolicy` consumes the index through `PickUserIndexed`;
/// the per-tenant key material each policy relies on is derived in ONE
/// place (`MakeTenantKey`) from `UserState`:
///
///   - GREEDY: (UCB bound sigma~, line-8 gap, exact-sum candidate
///     membership). The candidate threshold "bound * finite_count >= exact
///     sum" is evaluated against an incrementally maintained
///     `ExactDoubleSum` — exact integer arithmetic, so adding a bound and
///     later subtracting it restores the accumulator bit-for-bit and the
///     running sum equals the scan's fresh accumulation exactly. The
///     line-8 argmax runs as a pruned tournament descent (candidacy is
///     monotone in the bound, so a subtree whose max bound fails the
///     threshold holds no candidate); the descent tests bounds against the
///     threshold's exact cut (`Candidacy`), one double compare per node.
///   - ROUNDROBIN / FCFS: min-id and cyclic-distance picks are answered
///     from `min_schedulable` summaries; the cursor is a QUERY parameter
///     (one O(log T) descent for the min schedulable id >= cursor, else
///     the root minimum), so advancing it never touches a leaf — the
///     epoch-offset idea with the offset applied at read time.
///   - RANDOM: the root's schedulable count is the total for the uniform
///     draw (identical RNG stream), and one rank descent over per-node
///     counts finds the j-th schedulable id in ascending order.
///   - HYBRID: delegates to the active phase (GREEDY before the freeze
///     switch, ROUNDROBIN after). Its freeze detector runs on the report
///     path (`OnOutcomeIndexed`): it computes the cut of the running sum
///     once and updates its copy of the candidate set from the change log
///     below — each changed tenant's key, plus the unchanged tenants whose
///     bound lies between the previous cut and this one — instead of
///     reading every tenant. The set it keeps is the one the scan's
///     `ComputeCandidateSet` builds with one exact `CompareScaled` per
///     tenant.
///
/// ## Change log
///
/// An index built with `log_changes` records every tenant whose key was
/// appended or refreshed, once per tenant, in first-change order, until
/// `TakeChanged` hands the list over and clears it. Between two HYBRID
/// outcomes that list is exactly the set of tenants whose key or best
/// reward may have moved, since every fold refreshes its tenant. Engines
/// turn the log on for HYBRID only; no other policy reads it.
///
/// Keys go stale the moment their tenant's state changes; the owning
/// selector MUST call `Refresh` after every event that touches a tenant —
/// arm selection, outcome fold, cancel, retire — before the next pick.
/// A new tenant is appended at the leaf slot equal to its id
/// (`AppendTenant`; ids are dense and issued in order) and keeps that leaf
/// for life: retirement is one more `Refresh`, which leaves a neutral leaf
/// (never schedulable, never a candidate), so no event ever moves a
/// tenant.
///
/// ## External synchronization
///
/// Not thread-safe, and deliberately mutex-free: the index is engine
/// state behind the owning selector's lock (its `mu_`, an annotated
/// `easeml::Mutex` from common/thread_annotations.h). Because the selector
/// reaches it through an owning pointer, that guarded-by relation is
/// expressed on the selector side (`EASEML_PT_GUARDED_BY` at the owner),
/// not here — a struct cannot name a mutex it has never heard of.
/// Every call — picks, arm selections, report and cancel folds, churn and
/// `TakeChanged` — runs on the thread that called into the engine, one at
/// a time. Any new caller must hold that synchronization too.
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
  /// the scan's total orders), so the root is the scan's answer for every
  /// tree shape.
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

  /// An empty index. `track_gap` controls whether keys carry the line-8
  /// gap — the one O(K) derivation (the batched MaxUcb read). Only
  /// GREEDY/HYBRID picks consume it; engines serving the other schedulers
  /// pass false so the per-event refresh stays O(log T) with no posterior
  /// reads at all. `log_changes` turns on the change log (see the class
  /// comment), which only HYBRID's freeze detector consumes.
  explicit CandidateIndex(bool track_gap = true, bool log_changes = false);

  /// Places a NEW tenant at leaf slot `user.user_id()` in O(log T)
  /// amortized. The id must be the next slot (the number of tenants
  /// placed so far); anything else fails fast. The only placement path:
  /// the engine adds this way, and the tenant stays on that leaf for life.
  void AppendTenant(const UserState& user);

  /// Recomputes `user`'s key (the only O(K) step: the batched MaxUcb
  /// diagnostics read) and replays its leaf's O(log T) root path plus the
  /// running bound sum and count. The tenant must have been placed
  /// (`AppendTenant`). Both calls log the tenant when the log is on.
  void Refresh(const UserState& user);

  // --- O(1) reads ---------------------------------------------------------
  /// The summary over every tenant: counts, lowest ids, argmax pairs.
  const IndexNode& Root() const { return tree_.Root(); }
  /// GREEDY's line-7 threshold: the exact sum of the finite bounds of the
  /// schedulable tenants, and how many there are — what the scan's first
  /// pass accumulates, bit-for-bit.
  const ExactDoubleSum& bound_sum() const { return bound_sum_; }
  int finite_count() const { return finite_count_; }

  // --- Pruned O(log T) descents ------------------------------------------
  /// Argmax of the line-8 key over CANDIDATES. `use_gap` picks the gap key
  /// (kMaxUcbGap) vs the bound itself (kMaxEmpiricalBound).
  Best BestCandidate(const Candidacy& candidacy, bool use_gap) const;

  /// Lowest candidate tenant id; kNone if none. (The scan's
  /// min_candidate fallback for the all-keys-at--inf case.)
  int MinCandidate(const Candidacy& candidacy) const;

  /// Lowest schedulable tenant id >= `id_floor`; kNone if none.
  /// Round-robin's cyclic pick = this at the cursor, else the root min.
  int MinSchedulableAtLeast(int id_floor) const;

  /// The schedulable tenant of 0-based `rank` in ascending id order —
  /// RANDOM's draw; kNone unless 0 <= rank < Root().cnt_schedulable.
  int SchedulableAtRank(int rank) const;

  /// The cached key for `tenant` (fresh iff the invalidation contract was
  /// honored). Valid for any id the index has placed.
  const TenantKey& Key(int tenant) const { return keys_[tenant]; }

  /// Whether keys carry the line-8 gap (see the constructor).
  bool track_gap() const { return track_gap_; }

  /// Whether the change log is on (see the constructor).
  bool logs_changes() const { return log_changes_; }

  /// Replaces `*out` with every tenant appended or refreshed since the
  /// last call, each once, in first-change order, and empties the log.
  /// Always empty when the log is off.
  void TakeChanged(std::vector<int>* out);

  /// Invariant check (tests / debug builds): checks that `users` are
  /// exactly the placed tenants, recomputes every key from them and every
  /// aggregate from scratch, and compares against the incrementally
  /// maintained state — keys bit-for-bit, the sum by exact comparison,
  /// every tree node re-merged. Returns Internal on the first divergence.
  /// O(T); never called on the serving path.
  Status Validate(const std::vector<UserState>& users) const;

 private:
  /// MakeTenantKey with this index's gap-tracking mode (defined after the
  /// free function's declaration).
  TenantKey DeriveKey(const UserState& user) const;

  /// Moves `key`'s finite bound into (sign = +1) or out of (sign = -1) the
  /// running sum and count; no-op unless it is schedulable and finite.
  void CountBound(const TenantKey& key, int sign);

  /// Appends `id` to the change log unless the log is off or already
  /// holds it.
  void NoteChange(int id);

  bool track_gap_ = true;
  bool log_changes_ = false;
  // Leaf slot = tenant id.
  TournamentTree<IndexNode> tree_;
  // Indexed by tenant id (ids are dense and never reused).
  std::vector<TenantKey> keys_;
  // GREEDY's threshold, maintained by exact +/- deltas: ExactDoubleSum is
  // exact integer arithmetic, so removals cancel additions bit-for-bit and
  // the running value always equals a fresh accumulation over the
  // current members.
  ExactDoubleSum bound_sum_;
  int finite_count_ = 0;
  // The change log in first-change order, and 1 per tenant while it is in
  // the log.
  std::vector<int> changed_;
  std::vector<uint8_t> logged_;
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
