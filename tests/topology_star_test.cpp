// Theorems 7, 8, 9: star-graph equilibrium conditions, cross-checked three
// ways: the paper's closed-form conditions, the proof's deviation-family
// expressions, and the generic numeric Nash checker on the actual graph.

#include "topology/star.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "topology/nash.h"
#include "util/harmonic.h"

namespace lcg::topology {
namespace {

TEST(StarClosedForm, ReportStructure) {
  game_params p{1.0, 1.0, 0.5, 1.0};
  const star_condition_report r = star_ne_conditions(5, p);
  EXPECT_GT(r.cond1_rhs, 0.0);
  EXPECT_GE(r.cond2_worst_i, 2u);
  EXPECT_LE(r.cond2_worst_i, 4u);
}

TEST(StarClosedForm, LargeSAlwaysEquilibrium) {
  // Theorem 7: 1/2^s negligible => star is a NE (leaves >= 4), and every
  // leaf deviation family, by the paper's formula and exactly, falls below
  // the default strategy.
  game_params p{2.0, 3.0, 0.05, /*s=*/25.0};
  for (const std::size_t leaves : {4u, 5u, 8u, 12u}) {
    EXPECT_TRUE(star_is_ne_closed_form(leaves, p)) << leaves;
    const auto families = star_leaf_deviation_utilities(leaves, p);
    for (std::size_t i = 1; i < families.size(); ++i) {
      EXPECT_LT(families[i].exact_utility, families[0].exact_utility)
          << leaves << " " << families[i].name;
      EXPECT_LT(families[i].paper_utility(), families[0].paper_utility())
          << leaves << " " << families[i].name;
    }
  }
}

TEST(StarNumeric, LargeSAlwaysEquilibrium) {
  game_params p{2.0, 3.0, 0.05, /*s=*/25.0};
  for (const std::size_t leaves : {4u, 5u, 6u}) {
    const graph::digraph g = graph::star_graph(leaves);
    EXPECT_TRUE(check_nash_equilibrium(g, p).is_equilibrium) << leaves;
  }
}

TEST(StarClosedForm, Theorem9SufficientCondition) {
  // s >= 2 and a/H, b/H <= l imply the closed-form conditions hold.
  for (const double s : {2.0, 2.5, 3.0}) {
    for (const std::size_t leaves : {3u, 5u, 9u}) {
      const double h = lcg::harmonic(leaves, s);
      game_params p{/*a=*/0.9 * h, /*b=*/0.9 * h, /*l=*/1.0, s};
      EXPECT_TRUE(star_ne_sufficient_thm9(leaves, p));
      EXPECT_TRUE(star_is_ne_closed_form(leaves, p))
          << "s=" << s << " leaves=" << leaves;
    }
  }
  // s < 2 never satisfies Theorem 9's precondition.
  game_params low_s{0.1, 0.1, 1.0, 1.9};
  EXPECT_FALSE(star_ne_sufficient_thm9(5, low_s));
}

TEST(StarNumeric, Theorem9InstancesAreEquilibria) {
  for (const std::size_t leaves : {4u, 6u}) {
    const double s = 2.0;
    const double h = lcg::harmonic(leaves, s);
    game_params p{0.9 * h, 0.9 * h, 1.0, s};
    const graph::digraph g = graph::star_graph(leaves);
    EXPECT_TRUE(check_nash_equilibrium(g, p).is_equilibrium) << leaves;
  }
}

TEST(StarClosedForm, ExpensiveFeesBreakEquilibrium) {
  // With a huge fee coefficient and tiny edge cost, a leaf prefers direct
  // channels: condition 1 (a/H <= 2^s l) fails.
  game_params p{/*a=*/100.0, /*b=*/0.0, /*l=*/0.01, /*s=*/0.5};
  EXPECT_FALSE(star_is_ne_closed_form(6, p));
  const graph::digraph g = graph::star_graph(6);
  EXPECT_FALSE(check_nash_equilibrium(g, p).is_equilibrium);
}

TEST(StarFamilies, DefaultMatchesExactUtility) {
  const std::size_t leaves = 6;
  game_params p{1.2, 0.8, 0.4, 1.0};
  const auto families = star_leaf_deviation_utilities(leaves, p);
  ASSERT_FALSE(families.empty());
  EXPECT_EQ(families[0].name, "default");
  // Paper formula and exact graph evaluation agree on the default strategy.
  EXPECT_NEAR(families[0].paper_utility(), families[0].exact_utility, 1e-9);
}

TEST(StarFamilies, ExactFamiliesKnownToBeExactAgree) {
  // add-all-keep-center, add-all-drop-center and add-one-keep-center are
  // exact for every n; add-i-keep-center is exact for i >= 3 (for i = 2 the
  // deviator ties with other degree-2 leaves, which the paper's formula
  // ignores).
  const std::size_t leaves = 7;
  for (const double s : {0.5, 1.0, 2.0}) {
    game_params p{1.1, 0.9, 0.3, s};
    const auto families = star_leaf_deviation_utilities(leaves, p);
    for (const auto& fam : families) {
      const bool exact_family =
          fam.name == "default" || fam.name == "add-all-keep-center" ||
          fam.name == "add-all-drop-center" ||
          fam.name == "add-one-keep-center" ||
          (fam.name.find("keep-center") != std::string::npos &&
           fam.added >= 3);
      if (exact_family) {
        EXPECT_NEAR(fam.paper_utility(), fam.exact_utility, 1e-9)
            << fam.name << " s=" << s;
      }
    }
  }
}

TEST(StarFamilies, PaperDropCenterFamilyOverestimatesUtility) {
  // The proof's add-i-drop-center expression undercounts fees (it charges
  // one hop for nodes at distance 3), so the paper utility is an upper
  // bound on the exact one — which keeps Theorem 8 sound as a sufficient
  // condition. Pin that direction.
  const std::size_t leaves = 7;
  game_params p{1.0, 1.0, 0.3, 1.0};
  const auto families = star_leaf_deviation_utilities(leaves, p);
  for (const auto& fam : families) {
    if (fam.drops_center && fam.added >= 3 && fam.added + 2 <= leaves) {
      EXPECT_GE(fam.paper_utility(), fam.exact_utility - 1e-9) << fam.name;
    }
  }
}

TEST(StarFamilies, NumericCheckerAgreesWithExactFamilies) {
  // If some family has exact utility above the default's, the numeric
  // checker must find the star unstable; if all are below, the families at
  // least do not contradict equilibrium.
  const std::size_t leaves = 5;
  for (const double l : {0.01, 0.2, 1.0}) {
    game_params p{1.0, 1.0, l, 1.0};
    const auto families = star_leaf_deviation_utilities(leaves, p);
    const double base = families[0].exact_utility;
    bool family_improves = false;
    for (const auto& fam : families) {
      if (fam.exact_utility > base + 1e-9) family_improves = true;
    }
    const graph::digraph g = graph::star_graph(leaves);
    const bool ne = check_nash_equilibrium(g, p).is_equilibrium;
    if (family_improves) {
      EXPECT_FALSE(ne) << "l=" << l;
    }
  }
}

TEST(StarClosedForm, ClosedFormImpliesNumericEquilibrium) {
  // Paper conditions are sufficient (their slips are conservative): sweep a
  // grid and require closed-form-holds => numeric NE.
  const std::size_t leaves = 5;
  const graph::digraph g = graph::star_graph(leaves);
  for (const double s : {0.5, 1.0, 2.0}) {
    for (const double l : {0.05, 0.3, 1.0}) {
      for (const double ab : {0.2, 1.0, 3.0}) {
        game_params p{ab, ab, l, s};
        if (star_is_ne_closed_form(leaves, p)) {
          EXPECT_TRUE(check_nash_equilibrium(g, p).is_equilibrium)
              << "s=" << s << " l=" << l << " ab=" << ab;
        }
      }
    }
  }
}

TEST(StarClosedForm, TwoLeavesOnlyCondition1) {
  // With n = 2 leaves the i-ranges are empty; condition 1 decides alone.
  game_params ok{/*a=*/0.1, /*b=*/5.0, /*l=*/1.0, /*s=*/1.0};
  EXPECT_TRUE(star_is_ne_closed_form(2, ok));
  game_params bad{/*a=*/10.0, /*b=*/0.0, /*l=*/0.1, /*s=*/0.0};
  EXPECT_FALSE(star_is_ne_closed_form(2, bad));
}

}  // namespace
}  // namespace lcg::topology
