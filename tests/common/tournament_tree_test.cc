#include "common/tournament_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace easeml {
namespace {

/// Associative summary with a total-order tie-break (min-index argmax) and
/// an exactly mergeable count — the shape the candidate index uses.
struct MaxSummary {
  int count = 0;
  double max = -1e300;
  int arg = -1;  // -1 = identity ("empty slot")

  static MaxSummary Merge(const MaxSummary& a, const MaxSummary& b) {
    MaxSummary out = a;
    out.count += b.count;
    if (b.arg >= 0 && (out.arg < 0 || b.max > out.max ||
                       (b.max == out.max && b.arg < out.arg))) {
      out.max = b.max;
      out.arg = b.arg;
    }
    return out;
  }
};

MaxSummary Leaf(int index, double value) {
  MaxSummary s;
  s.count = 1;
  s.max = value;
  s.arg = index;
  return s;
}

TEST(TournamentTreeTest, EmptyTreeHoldsIdentityRoot) {
  TournamentTree<MaxSummary> tree;
  EXPECT_EQ(tree.num_leaves(), 0);
  EXPECT_EQ(tree.Root().count, 0);
  EXPECT_EQ(tree.Root().arg, -1);
}

TEST(TournamentTreeTest, BulkBuildMatchesSequentialFold) {
  Rng rng(7);
  for (int n : {1, 2, 3, 5, 8, 13, 64, 100}) {
    std::vector<MaxSummary> leaves;
    for (int i = 0; i < n; ++i) {
      leaves.push_back(Leaf(i, rng.UniformInt(0, 20)));  // many exact ties
    }
    TournamentTree<MaxSummary> tree;
    tree.Assign(leaves);
    MaxSummary expected;
    for (const MaxSummary& leaf : leaves) {
      expected = MaxSummary::Merge(expected, leaf);
    }
    EXPECT_EQ(tree.Root().count, n);
    EXPECT_EQ(tree.Root().max, expected.max) << "n=" << n;
    EXPECT_EQ(tree.Root().arg, expected.arg) << "n=" << n;
  }
}

/// The load-bearing property: a long random sequence of single-leaf
/// updates must leave the root exactly where a from-scratch rebuild puts
/// it — incremental replay can never drift from the bulk build.
TEST(TournamentTreeTest, IncrementalUpdatesMatchRebuild) {
  Rng rng(42);
  constexpr int kLeaves = 37;  // not a power of two: exercises padding
  std::vector<MaxSummary> leaves;
  for (int i = 0; i < kLeaves; ++i) {
    leaves.push_back(Leaf(i, rng.UniformInt(0, 9)));
  }
  TournamentTree<MaxSummary> tree;
  tree.Assign(leaves);
  for (int step = 0; step < 2000; ++step) {
    const int slot = rng.UniformInt(0, kLeaves - 1);
    if (rng.UniformInt(0, 4) == 0) {
      leaves[slot] = MaxSummary();  // clear to identity ("retired")
    } else {
      leaves[slot] = Leaf(slot, rng.UniformInt(0, 9));
    }
    tree.Update(slot, leaves[slot]);

    TournamentTree<MaxSummary> rebuilt;
    rebuilt.Assign(leaves);
    ASSERT_EQ(tree.Root().count, rebuilt.Root().count) << "step " << step;
    ASSERT_EQ(tree.Root().max, rebuilt.Root().max) << "step " << step;
    ASSERT_EQ(tree.Root().arg, rebuilt.Root().arg) << "step " << step;
    // Every internal node must equal the merge of its children.
    for (int node = tree.leaf_begin() - 1; node >= 1; --node) {
      const MaxSummary expect =
          MaxSummary::Merge(tree.node(2 * node), tree.node(2 * node + 1));
      ASSERT_EQ(tree.node(node).count, expect.count);
      ASSERT_EQ(tree.node(node).max, expect.max);
      ASSERT_EQ(tree.node(node).arg, expect.arg);
    }
  }
}

/// Fixed shape: the root is a pure function of the leaf VALUES, never of
/// the update order that produced them.
TEST(TournamentTreeTest, RootIndependentOfUpdateOrder) {
  constexpr int kLeaves = 21;
  std::vector<MaxSummary> leaves;
  for (int i = 0; i < kLeaves; ++i) leaves.push_back(Leaf(i, (i * 7) % 10));

  TournamentTree<MaxSummary> forward;
  forward.Assign(std::vector<MaxSummary>(kLeaves));
  for (int i = 0; i < kLeaves; ++i) forward.Update(i, leaves[i]);

  TournamentTree<MaxSummary> backward;
  backward.Assign(std::vector<MaxSummary>(kLeaves));
  for (int i = kLeaves - 1; i >= 0; --i) backward.Update(i, leaves[i]);

  EXPECT_EQ(forward.Root().max, backward.Root().max);
  EXPECT_EQ(forward.Root().arg, backward.Root().arg);
  EXPECT_EQ(forward.Root().count, backward.Root().count);
}

TEST(TournamentTreeTest, TiesResolveToLowestIndex) {
  std::vector<MaxSummary> leaves;
  for (int i = 0; i < 9; ++i) leaves.push_back(Leaf(i, 5.0));
  TournamentTree<MaxSummary> tree;
  tree.Assign(leaves);
  EXPECT_EQ(tree.Root().arg, 0);
  tree.Update(0, MaxSummary());  // retire the winner
  EXPECT_EQ(tree.Root().arg, 1);
  tree.Update(4, Leaf(4, 6.0));
  EXPECT_EQ(tree.Root().arg, 4);
}

}  // namespace
}  // namespace easeml
