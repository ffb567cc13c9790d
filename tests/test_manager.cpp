#include "bdd/manager.hpp"

#include <gtest/gtest.h>

namespace bddmin {
namespace {

TEST(Manager, FreshManagerHasOnlyTerminal) {
  Manager mgr(4);
  EXPECT_EQ(mgr.live_nodes(), 1u);
  EXPECT_EQ(mgr.num_vars(), 4u);
}

TEST(Manager, VarEdgeIsANodeOverTheVariable) {
  Manager mgr(4);
  const Edge x1 = mgr.var_edge(1);
  EXPECT_FALSE(Manager::is_const(x1));
  EXPECT_EQ(mgr.var_of(x1), 1u);
  EXPECT_EQ(mgr.hi_of(x1), kOne);
  EXPECT_EQ(mgr.lo_of(x1), kZero);
}

TEST(Manager, NVarEdgeIsComplement) {
  Manager mgr(4);
  EXPECT_EQ(mgr.nvar_edge(2), !mgr.var_edge(2));
}

TEST(Manager, DeletionRuleEqualChildren) {
  Manager mgr(4);
  const Edge x0 = mgr.var_edge(0);
  EXPECT_EQ(mgr.make_node(1, x0, x0), x0);
  EXPECT_EQ(mgr.make_node(0, kOne, kOne), kOne);
}

TEST(Manager, MergingRuleSharesStructure) {
  Manager mgr(4);
  const Edge a = mgr.make_node(1, kOne, kZero);
  const Edge b = mgr.make_node(1, kOne, kZero);
  EXPECT_EQ(a, b);
}

TEST(Manager, CanonicalComplementFormHiAlwaysRegular) {
  Manager mgr(4);
  // make_node with a complemented hi edge must push the complement out.
  const Edge e = mgr.make_node(0, kZero, kOne);  // hi=0 is complemented
  EXPECT_TRUE(e.complemented());
  const Node& n = mgr.node_at(e.index());
  EXPECT_FALSE(n.hi.complemented());
  EXPECT_EQ(mgr.hi_of(e), kZero);
  EXPECT_EQ(mgr.lo_of(e), kOne);
}

TEST(Manager, ComplementPairsShareOneNode) {
  Manager mgr(4);
  const Edge x = mgr.var_edge(3);
  EXPECT_EQ(x.index(), (!x).index());
}

TEST(Manager, BranchesSplitOnlyAtMatchingVariable) {
  Manager mgr(4);
  const Edge x2 = mgr.var_edge(2);
  const auto [t_at2, e_at2] = mgr.branches(x2, 2);
  EXPECT_EQ(t_at2, kOne);
  EXPECT_EQ(e_at2, kZero);
  const auto [t_at0, e_at0] = mgr.branches(x2, 0);
  EXPECT_EQ(t_at0, x2);
  EXPECT_EQ(e_at0, x2);
}

TEST(Manager, VarOfConstantIsSentinel) {
  Manager mgr(2);
  EXPECT_EQ(mgr.var_of(kOne), kConstVar);
  EXPECT_EQ(mgr.var_of(kZero), kConstVar);
}

TEST(Manager, AddVarExtendsOrderAtBottom) {
  Manager mgr(2);
  const unsigned v = mgr.add_var();
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(mgr.num_vars(), 3u);
  EXPECT_EQ(mgr.var_of(mgr.var_edge(v)), 2u);
}

TEST(Manager, CacheRoundTrip) {
  Manager mgr(2);
  const Edge x = mgr.var_edge(0);
  Edge out;
  EXPECT_FALSE(mgr.cache_lookup(Manager::kUserOpBase, x, kOne, kZero, &out));
  mgr.cache_insert(Manager::kUserOpBase, x, kOne, kZero, !x);
  ASSERT_TRUE(mgr.cache_lookup(Manager::kUserOpBase, x, kOne, kZero, &out));
  EXPECT_EQ(out, !x);
  mgr.clear_caches();
  EXPECT_FALSE(mgr.cache_lookup(Manager::kUserOpBase, x, kOne, kZero, &out));
}

TEST(Manager, LevelSwapDropsCachedResults) {
  // Client memos such as the sibling covers are answers under one variable
  // order, so a swap must invalidate them even when it frees no node.
  Manager mgr(2);
  const Edge x = mgr.var_edge(0);
  mgr.cache_insert(Manager::kUserOpBase, x, kOne, kOne, !x);
  (void)mgr.swap_adjacent_levels(0);
  Edge out;
  EXPECT_FALSE(mgr.cache_lookup(Manager::kUserOpBase, x, kOne, kOne, &out));
}

TEST(Manager, UniqueTableSurvivesGrowth) {
  Manager mgr(16);
  // Force several bucket growths; previously created nodes must still be
  // found (not duplicated).
  std::vector<Edge> first;
  for (unsigned v = 0; v < 16; ++v) first.push_back(mgr.var_edge(v));
  Edge chain = kOne;
  for (unsigned v = 16; v-- > 0;) chain = mgr.make_node(v, chain, kZero);
  for (unsigned i = 0; i < 2000; ++i) {
    // Build i-dependent functions to populate the table.
    const Edge x = mgr.var_edge(i % 16);
    const Edge y = mgr.var_edge((i + 7) % 16);
    (void)mgr.ite(x, y, !y);
  }
  for (unsigned v = 0; v < 16; ++v) EXPECT_EQ(mgr.var_edge(v), first[v]);
  Edge chain2 = kOne;
  for (unsigned v = 16; v-- > 0;) chain2 = mgr.make_node(v, chain2, kZero);
  EXPECT_EQ(chain2, chain);
}

}  // namespace
}  // namespace bddmin
