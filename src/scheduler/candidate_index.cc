#include "scheduler/candidate_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

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

CandidateIndex::CandidateIndex(bool track_gap, bool log_changes)
    : track_gap_(track_gap), log_changes_(log_changes) {}

void CandidateIndex::CountBound(const TenantKey& key, int sign) {
  if (!key.schedulable || !std::isfinite(key.bound)) return;
  bound_sum_.AddProduct(key.bound, sign);
  finite_count_ += sign;
}

void CandidateIndex::NoteChange(int id) {
  if (!log_changes_ || logged_[id] != 0) return;
  logged_[id] = 1;
  changed_.push_back(id);
}

void CandidateIndex::TakeChanged(std::vector<int>* out) {
  for (const int id : changed_) logged_[id] = 0;
  out->swap(changed_);
  changed_.clear();
}

void CandidateIndex::AppendTenant(const UserState& user) {
  const int id = user.user_id();
  EASEML_CHECK(id == tree_.num_leaves())
      << "index: tenant " << id << " appended at leaf slot "
      << tree_.num_leaves();
  keys_.push_back(DeriveKey(user));
  logged_.push_back(0);
  tree_.Append(IndexNode::MakeLeaf(id, keys_.back()));
  CountBound(keys_.back(), +1);
  NoteChange(id);
}

void CandidateIndex::Refresh(const UserState& user) {
  // Callers hold the owning selector's synchronization (see the header's
  // external-synchronization contract), so this mutation is ordered before
  // the next pick's root read.
  const int id = user.user_id();
  EASEML_DCHECK(id >= 0 && id < tree_.num_leaves())
      << "index: Refresh of unplaced tenant " << id;
  TenantKey& key = keys_[id];
  // Exact +/- deltas: ExactDoubleSum is integer arithmetic, so the
  // removal cancels the original addition bit-for-bit and the running sum
  // always equals a fresh accumulation over the current members.
  CountBound(key, -1);
  key = DeriveKey(user);
  CountBound(key, +1);
  tree_.Update(id, IndexNode::MakeLeaf(id, key));
  NoteChange(id);
}

namespace {

using Tree = TournamentTree<CandidateIndex::IndexNode>;

/// Pruned argmax descent for GREEDY's line-8 pick over candidates.
/// Candidacy is monotone in the bound (`bound >= cut`; +inf always admits,
/// NaN/-inf never), so a subtree whose max bound fails the threshold holds
/// no candidate and is cut; subtrees whose max key cannot beat the current
/// best are cut by the same total order the scan's argmax fold uses. The
/// result is the unique (key desc, id asc) optimum over candidates,
/// independent of visit order.
void DescendBestCandidate(const Tree& tree, const CandidateIndex& index,
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
    if (candidacy.Admits(index.Key(tree.slot_of(node)).bound)) {
      *best = potential;
    }
    return;
  }
  DescendBestCandidate(tree, index, candidacy, use_gap, 2 * node, best);
  DescendBestCandidate(tree, index, candidacy, use_gap, 2 * node + 1, best);
}

/// Leftmost (= lowest-id) candidate leaf, kNone if none.
int DescendMinCandidate(const Tree& tree,
                        const CandidateIndex::Candidacy& candidacy, int node) {
  const CandidateIndex::IndexNode& n = tree.node(node);
  if (n.cnt_schedulable == 0) return kNone;
  if (n.max_bound_id == kNone || !candidacy.Admits(n.max_bound)) return kNone;
  if (tree.is_leaf(node)) return tree.slot_of(node);
  const int left = DescendMinCandidate(tree, candidacy, 2 * node);
  if (left != kNone) return left;
  return DescendMinCandidate(tree, candidacy, 2 * node + 1);
}

/// Lowest schedulable id among leaf slots >= `from_slot`. `lo`/`hi` is the
/// slot range `node` covers; the leftmost schedulable slot in range
/// carries the minimum id.
int DescendMinSchedulableFrom(const Tree& tree, int node, int lo, int hi,
                              int from_slot) {
  const CandidateIndex::IndexNode& n = tree.node(node);
  if (n.cnt_schedulable == 0 || hi <= from_slot) return kNone;
  if (lo >= from_slot) return n.min_schedulable;
  const int mid = lo + (hi - lo) / 2;
  const int left =
      DescendMinSchedulableFrom(tree, 2 * node, lo, mid, from_slot);
  if (left != kNone) return left;
  return DescendMinSchedulableFrom(tree, 2 * node + 1, mid, hi, from_slot);
}

}  // namespace

CandidateIndex::Best CandidateIndex::BestCandidate(const Candidacy& candidacy,
                                                   bool use_gap) const {
  Best best;
  DescendBestCandidate(tree_, *this, candidacy, use_gap, Tree::kRoot, &best);
  return best;
}

int CandidateIndex::MinCandidate(const Candidacy& candidacy) const {
  if (candidacy.all_candidates) return Root().min_schedulable;
  return DescendMinCandidate(tree_, candidacy, Tree::kRoot);
}

int CandidateIndex::MinSchedulableAtLeast(int id_floor) const {
  return DescendMinSchedulableFrom(tree_, Tree::kRoot, 0, tree_.leaf_begin(),
                                   id_floor);
}

int CandidateIndex::SchedulableAtRank(int rank) const {
  if (rank < 0 || rank >= Root().cnt_schedulable) return kNone;
  int node = Tree::kRoot;
  while (!tree_.is_leaf(node)) {
    const int left_count = tree_.node(2 * node).cnt_schedulable;
    if (rank < left_count) {
      node = 2 * node;
    } else {
      rank -= left_count;
      node = 2 * node + 1;
    }
  }
  return tree_.slot_of(node);
}

Status CandidateIndex::Validate(const std::vector<UserState>& users) const {
  if (static_cast<int>(users.size()) != tree_.num_leaves()) {
    return Status::Internal("index: " + std::to_string(tree_.num_leaves()) +
                            " leaves for " + std::to_string(users.size()) +
                            " tenants");
  }
  ExactDoubleSum fresh_sum;
  int fresh_finite = 0;
  for (int id = 0; id < tree_.num_leaves(); ++id) {
    const UserState& user = users[static_cast<size_t>(id)];
    if (user.user_id() != id) {
      return Status::Internal("index: leaf slot " + std::to_string(id) +
                              " holds tenant " +
                              std::to_string(user.user_id()));
    }
    // Stale-leaf check: the cached key must be re-derivable bit-for-bit.
    const TenantKey fresh_key = DeriveKey(user);
    if (!SameKey(fresh_key, keys_[id])) {
      return Status::Internal("index: stale key for tenant " +
                              std::to_string(id));
    }
    if (!SameNode(tree_.Leaf(id), IndexNode::MakeLeaf(id, fresh_key))) {
      return Status::Internal("index: stale leaf for tenant " +
                              std::to_string(id));
    }
    if (fresh_key.schedulable && std::isfinite(fresh_key.bound)) {
      fresh_sum.Add(fresh_key.bound);
      ++fresh_finite;
    }
  }
  if (fresh_finite != finite_count_) {
    return Status::Internal("index: finite-bound count drifted");
  }
  if (fresh_sum.Compare(bound_sum_) != 0) {
    return Status::Internal("index: exact bound sum drifted");
  }
  // Replay every internal merge: the materialized reduction must equal a
  // fresh fold over the current leaves.
  for (int node = tree_.leaf_begin() - 1; node >= 1; --node) {
    if (!SameNode(tree_.node(node), IndexNode::Merge(tree_.node(2 * node),
                                                     tree_.node(2 * node + 1)))) {
      return Status::Internal("index: internal node " + std::to_string(node) +
                              " out of date");
    }
  }
  return Status::OK();
}

}  // namespace easeml::scheduler
