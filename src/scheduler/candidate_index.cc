#include "scheduler/candidate_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"

namespace easeml::scheduler {

namespace {

constexpr int kNone = CandidateIndex::kNone;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Bitwise double equality: Validate must distinguish NaN payloads and
/// signed zeros exactly like the bit-identical-replay guarantee does.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameKey(const CandidateIndex::TenantKey& a,
             const CandidateIndex::TenantKey& b) {
  return a.schedulable == b.schedulable && a.uninitialized == b.uninitialized &&
         a.bad_policy == b.bad_policy && SameBits(a.bound, b.bound) &&
         SameBits(a.gap, b.gap);
}

bool SameNode(const CandidateIndex::IndexNode& a,
              const CandidateIndex::IndexNode& b) {
  return a.cnt_schedulable == b.cnt_schedulable &&
         a.min_schedulable == b.min_schedulable &&
         a.min_uninitialized == b.min_uninitialized &&
         a.min_bad_policy == b.min_bad_policy &&
         a.max_bound_id == b.max_bound_id && a.max_gap_id == b.max_gap_id &&
         SameBits(a.max_bound, b.max_bound) && SameBits(a.max_gap, b.max_gap);
}

}  // namespace

CandidateIndex::TenantKey MakeTenantKey(const UserState& user,
                                        bool track_gap) {
  CandidateIndex::TenantKey key;
  key.gap = kNegInf;  // never wins a tournament pair unless derived below
  if (user.retired()) return key;  // neutral: contributes nothing
  key.bad_policy = !user.policy().HasConfidenceBounds();
  key.uninitialized = user.NeedsInitialObservation();
  key.schedulable = user.Schedulable();
  if (key.schedulable) {
    key.bound = user.empirical_bound();
    // The O(K) batched MaxUcb diagnostics read — the cost the scan paid
    // once per tenant per Next() and the index pays once per tenant EVENT.
    // Skipped entirely for schedulers that never read gaps.
    if (track_gap) key.gap = user.UcbGap();
  }
  return key;
}

CandidateIndex::TenantKey CandidateIndex::DeriveKey(
    const UserState& user) const {
  return MakeTenantKey(user, track_gap_);
}

CandidateIndex::IndexNode CandidateIndex::IndexNode::MakeLeaf(
    int tenant, const TenantKey& key) {
  IndexNode node;
  if (key.bad_policy) node.min_bad_policy = tenant;
  if (key.uninitialized) node.min_uninitialized = tenant;
  if (key.schedulable) {
    node.cnt_schedulable = 1;
    node.min_schedulable = tenant;
    // -inf-sentinel fold semantics: only keys strictly above -inf (never
    // NaN) occupy an argmax pair, exactly like the scans' `key > best`.
    if (key.bound > kNegInf) {
      node.max_bound = key.bound;
      node.max_bound_id = tenant;
    }
    if (key.gap > kNegInf) {
      node.max_gap = key.gap;
      node.max_gap_id = tenant;
    }
  }
  return node;
}

CandidateIndex::IndexNode CandidateIndex::IndexNode::Merge(const IndexNode& a,
                                                           const IndexNode& b) {
  IndexNode out = a;
  out.cnt_schedulable += b.cnt_schedulable;
  out.min_schedulable = std::min(out.min_schedulable, b.min_schedulable);
  out.min_uninitialized = std::min(out.min_uninitialized, b.min_uninitialized);
  out.min_bad_policy = std::min(out.min_bad_policy, b.min_bad_policy);
  // Same total order as the scan's argmax fold: strictly larger key wins,
  // exact ties keep the lower tenant id.
  if (b.max_bound_id != kNone &&
      (out.max_bound_id == kNone || b.max_bound > out.max_bound ||
       (b.max_bound == out.max_bound && b.max_bound_id < out.max_bound_id))) {
    out.max_bound = b.max_bound;
    out.max_bound_id = b.max_bound_id;
  }
  if (b.max_gap_id != kNone &&
      (out.max_gap_id == kNone || b.max_gap > out.max_gap ||
       (b.max_gap == out.max_gap && b.max_gap_id < out.max_gap_id))) {
    out.max_gap = b.max_gap;
    out.max_gap_id = b.max_gap_id;
  }
  return out;
}

CandidateIndex::Candidacy CandidateIndex::Candidacy::Of(
    const ExactDoubleSum& sum, int finite_count) {
  if (finite_count == 0) return Candidacy{0.0, true};
  return Candidacy{sum.MeanCut(finite_count), false};
}

CandidateIndex::CandidateIndex(int num_shards, bool track_gap,
                               bool log_changes)
    : track_gap_(track_gap),
      log_changes_(log_changes),
      shards_(static_cast<size_t>(num_shards)) {}

void CandidateIndex::NoteEvent(Shard& sh, int id) {
  ++sh.events;
  if (!log_changes_ || logged_[id] != 0) return;
  logged_[id] = 1;
  sh.changed.push_back(id);
}

void CandidateIndex::TakeChanged(std::vector<int>* out) {
  out->clear();
  for (Shard& sh : shards_) {
    for (const int id : sh.changed) logged_[id] = 0;
    out->insert(out->end(), sh.changed.begin(), sh.changed.end());
    sh.changed.clear();
  }
}

void CandidateIndex::AppendTenant(int shard, const UserState& user) {
  const int id = user.user_id();
  if (id >= static_cast<int>(keys_.size())) {
    keys_.resize(static_cast<size_t>(id) + 1);
    shard_of_.resize(static_cast<size_t>(id) + 1, -1);
    slot_of_.resize(static_cast<size_t>(id) + 1, -1);
    logged_.resize(static_cast<size_t>(id) + 1, 0);
  }
  keys_[id] = DeriveKey(user);
  Shard& sh = shards_[static_cast<size_t>(shard)];
  shard_of_[id] = shard;
  slot_of_[id] = static_cast<int>(sh.tenants.size());
  sh.tenants.push_back(id);
  sh.tree.Append(IndexNode::MakeLeaf(id, keys_[id]));
  const TenantKey& key = keys_[id];
  if (key.schedulable && std::isfinite(key.bound)) {
    sh.bound_sum.Add(key.bound);
    ++sh.finite_count;
  }
  NoteEvent(sh, id);
}

void CandidateIndex::Refresh(const UserState& user) {
  // Callers hold the owning selector's lock on a quiesced engine, or are
  // the shard's owning worker running a queued fold (see the header's
  // external-synchronization contract); either way this mutation is
  // ordered before the next pick's root read.
  const int id = user.user_id();
  EASEML_DCHECK(id >= 0 && id < static_cast<int>(shard_of_.size()) &&
                shard_of_[id] >= 0)
      << "index: Refresh of unplaced tenant " << id;
  const TenantKey fresh = DeriveKey(user);
  Shard& sh = shards_[static_cast<size_t>(shard_of_[id])];
  TenantKey& old = keys_[id];
  // Exact +/- deltas: ExactDoubleSum is integer arithmetic, so the
  // removal cancels the original addition bit-for-bit and the running sum
  // always equals a fresh accumulation over the current members.
  if (old.schedulable && std::isfinite(old.bound)) {
    sh.bound_sum.AddProduct(old.bound, -1);
    --sh.finite_count;
  }
  if (fresh.schedulable && std::isfinite(fresh.bound)) {
    sh.bound_sum.Add(fresh.bound);
    ++sh.finite_count;
  }
  sh.tree.Update(slot_of_[id], IndexNode::MakeLeaf(id, fresh));
  old = fresh;
  NoteEvent(sh, id);
}

CandidateIndex::Threshold CandidateIndex::MergedThreshold() const {
  // Every aggregate below changes only through a tenant event, which bumps
  // its shard's count, so equal counts mean an equal threshold.
  bool same = merged_events_.size() == shards_.size();
  for (size_t s = 0; same && s < shards_.size(); ++s) {
    same = merged_events_[s] == shards_[s].events;
  }
  if (same) return merged_;
  Threshold merged;
  merged_events_.clear();
  for (const Shard& sh : shards_) {
    const IndexNode& root = sh.tree.Root();
    merged.schedulable += root.cnt_schedulable;
    merged.min_bad_policy =
        std::min(merged.min_bad_policy, root.min_bad_policy);
    merged.finite_count += sh.finite_count;
    merged.bound_sum.Merge(sh.bound_sum);
    merged_events_.push_back(sh.events);
  }
  merged_ = merged;
  return merged;
}

int CandidateIndex::MinUninitialized() const {
  int min_id = kNone;
  for (const Shard& sh : shards_) {
    min_id = std::min(min_id, sh.tree.Root().min_uninitialized);
  }
  return min_id;
}

bool CandidateIndex::AnySchedulable() const {
  for (const Shard& sh : shards_) {
    if (sh.tree.Root().cnt_schedulable > 0) return true;
  }
  return false;
}

namespace {

/// Pruned argmax descent for GREEDY's line-8 pick over candidates.
/// Candidacy is monotone in the bound (`bound >= cut`; +inf always admits,
/// NaN/-inf never), so a subtree whose max bound fails the threshold holds
/// no candidate and is cut; subtrees whose max key cannot beat the current
/// best are cut by the same total order the scan's argmax fold uses. The
/// result is the unique (key desc, id asc) optimum over candidates,
/// independent of visit order.
void DescendBestCandidate(const TournamentTree<CandidateIndex::IndexNode>& tree,
                          const std::vector<int>& tenants,
                          const CandidateIndex& index,
                          const CandidateIndex::Candidacy& candidacy,
                          bool use_gap, int node, CandidateIndex::Best* best) {
  const CandidateIndex::IndexNode& n = tree.node(node);
  if (n.cnt_schedulable == 0) return;
  if (!candidacy.all_candidates &&
      (n.max_bound_id == kNone || !candidacy.Admits(n.max_bound))) {
    return;  // no candidate anywhere below
  }
  const CandidateIndex::Best potential{use_gap ? n.max_gap : n.max_bound,
                                       use_gap ? n.max_gap_id : n.max_bound_id};
  if (!potential.Beats(*best)) return;
  if (tree.is_leaf(node)) {
    const int tenant = tenants[static_cast<size_t>(tree.slot_of(node))];
    if (candidacy.Admits(index.Key(tenant).bound) && potential.Beats(*best)) {
      *best = potential;
    }
    return;
  }
  DescendBestCandidate(tree, tenants, index, candidacy, use_gap, 2 * node,
                       best);
  DescendBestCandidate(tree, tenants, index, candidacy, use_gap, 2 * node + 1,
                       best);
}

/// Leftmost (= lowest-id: leaves ascend) candidate leaf, kNone if none.
int DescendMinCandidate(const TournamentTree<CandidateIndex::IndexNode>& tree,
                        const std::vector<int>& tenants,
                        const CandidateIndex::Candidacy& candidacy, int node) {
  const CandidateIndex::IndexNode& n = tree.node(node);
  if (n.cnt_schedulable == 0) return kNone;
  if (n.max_bound_id == kNone || !candidacy.Admits(n.max_bound)) return kNone;
  if (tree.is_leaf(node)) {
    return tenants[static_cast<size_t>(tree.slot_of(node))];
  }
  const int left = DescendMinCandidate(tree, tenants, candidacy, 2 * node);
  if (left != kNone) return left;
  return DescendMinCandidate(tree, tenants, candidacy, 2 * node + 1);
}

/// Lowest schedulable id among leaf slots >= `from_slot`. `lo`/`hi` is the
/// slot range `node` covers. Leaves ascend by id, so the leftmost
/// schedulable slot in range carries the minimum id.
int DescendMinSchedulableFrom(
    const TournamentTree<CandidateIndex::IndexNode>& tree, int node, int lo,
    int hi, int from_slot) {
  const CandidateIndex::IndexNode& n = tree.node(node);
  if (n.cnt_schedulable == 0 || hi <= from_slot) return kNone;
  if (lo >= from_slot) return n.min_schedulable;
  const int mid = lo + (hi - lo) / 2;
  const int left =
      DescendMinSchedulableFrom(tree, 2 * node, lo, mid, from_slot);
  if (left != kNone) return left;
  return DescendMinSchedulableFrom(tree, 2 * node + 1, mid, hi, from_slot);
}

/// Number of schedulable leaves in slots [0, end_slot).
int DescendCountBefore(const TournamentTree<CandidateIndex::IndexNode>& tree,
                       int node, int lo, int hi, int end_slot) {
  const CandidateIndex::IndexNode& n = tree.node(node);
  if (n.cnt_schedulable == 0 || lo >= end_slot) return 0;
  if (hi <= end_slot) return n.cnt_schedulable;
  const int mid = lo + (hi - lo) / 2;
  return DescendCountBefore(tree, 2 * node, lo, mid, end_slot) +
         DescendCountBefore(tree, 2 * node + 1, mid, hi, end_slot);
}

}  // namespace

CandidateIndex::Best CandidateIndex::BestCandidate(int shard,
                                                   const Candidacy& candidacy,
                                                   bool use_gap,
                                                   Best best) const {
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  if (!sh.tenants.empty()) {
    DescendBestCandidate(sh.tree, sh.tenants, *this, candidacy, use_gap,
                         TournamentTree<IndexNode>::kRoot, &best);
  }
  return best;
}

int CandidateIndex::MinCandidate(int shard, const Candidacy& candidacy) const {
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  if (sh.tenants.empty()) return kNone;
  if (candidacy.all_candidates) return sh.tree.Root().min_schedulable;
  return DescendMinCandidate(sh.tree, sh.tenants, candidacy,
                             TournamentTree<IndexNode>::kRoot);
}

int CandidateIndex::MinSchedulableAtLeast(int shard, int id_floor) const {
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  if (sh.tenants.empty()) return kNone;
  const auto it =
      std::lower_bound(sh.tenants.begin(), sh.tenants.end(), id_floor);
  const int from_slot = static_cast<int>(it - sh.tenants.begin());
  if (from_slot >= static_cast<int>(sh.tenants.size())) return kNone;
  return DescendMinSchedulableFrom(sh.tree, TournamentTree<IndexNode>::kRoot,
                                   0, sh.tree.leaf_begin(), from_slot);
}

int CandidateIndex::CountSchedulableLeq(int shard, int id_cap) const {
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  if (sh.tenants.empty()) return 0;
  const auto it =
      std::upper_bound(sh.tenants.begin(), sh.tenants.end(), id_cap);
  const int end_slot = static_cast<int>(it - sh.tenants.begin());
  if (end_slot == 0) return 0;
  return DescendCountBefore(sh.tree, TournamentTree<IndexNode>::kRoot, 0,
                            sh.tree.leaf_begin(), end_slot);
}

std::vector<std::vector<int>> CandidateIndex::Placement() const {
  std::vector<std::vector<int>> locals;
  locals.reserve(shards_.size());
  for (const Shard& sh : shards_) locals.push_back(sh.tenants);
  return locals;
}

Status CandidateIndex::Validate(const std::vector<UserState>& users) const {
  std::vector<int> seen(users.size(), 0);
  for (int s = 0; s < num_shards(); ++s) {
    const Shard& sh = shards_[static_cast<size_t>(s)];
    ExactDoubleSum fresh_sum;
    int fresh_finite = 0;
    int prev_id = -1;
    for (size_t slot = 0; slot < sh.tenants.size(); ++slot) {
      const int id = sh.tenants[slot];
      if (id < 0 || id >= static_cast<int>(users.size())) {
        return Status::Internal("index: shard " + std::to_string(s) +
                                " places unknown tenant " +
                                std::to_string(id));
      }
      if (id <= prev_id) {
        return Status::Internal("index: shard " + std::to_string(s) +
                                " local ids not strictly ascending");
      }
      prev_id = id;
      if (++seen[id] > 1) {
        return Status::Internal("index: tenant " + std::to_string(id) +
                                " placed in more than one shard");
      }
      if (shard_of_[id] != s || slot_of_[id] != static_cast<int>(slot)) {
        return Status::Internal("index: tenant " + std::to_string(id) +
                                " placement map out of sync");
      }
      // Stale-leaf check: the cached key must be re-derivable bit-for-bit.
      const TenantKey fresh_key = DeriveKey(users[id]);
      if (!SameKey(fresh_key, keys_[id])) {
        return Status::Internal("index: stale key for tenant " +
                                std::to_string(id));
      }
      if (!SameNode(sh.tree.Leaf(static_cast<int>(slot)),
                    IndexNode::MakeLeaf(id, fresh_key))) {
        return Status::Internal("index: stale leaf for tenant " +
                                std::to_string(id));
      }
      if (fresh_key.schedulable && std::isfinite(fresh_key.bound)) {
        fresh_sum.Add(fresh_key.bound);
        ++fresh_finite;
      }
    }
    if (fresh_finite != sh.finite_count) {
      return Status::Internal("index: shard " + std::to_string(s) +
                              " finite-bound count drifted");
    }
    if (fresh_sum.Compare(sh.bound_sum) != 0) {
      return Status::Internal("index: shard " + std::to_string(s) +
                              " exact bound sum drifted");
    }
    // Replay every internal merge: the materialized reduction must equal a
    // fresh fold over the current leaves.
    for (int node = sh.tree.leaf_begin() - 1; node >= 1; --node) {
      if (!SameNode(sh.tree.node(node),
                    IndexNode::Merge(sh.tree.node(2 * node),
                                     sh.tree.node(2 * node + 1)))) {
        return Status::Internal("index: shard " + std::to_string(s) +
                                " internal node " + std::to_string(node) +
                                " out of date");
      }
    }
  }
  return Status::OK();
}

}  // namespace easeml::scheduler
