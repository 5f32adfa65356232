// Unit + property tests for the geometry substrate: vector algebra, segment
// intersection, convex polygons & half-plane clipping, Voronoi diagrams,
// field partitions, and the spatial hash.

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/partition.hpp"
#include "geometry/polygon.hpp"
#include "geometry/rect.hpp"
#include "geometry/segment.hpp"
#include "geometry/vec2.hpp"
#include "geometry/voronoi.hpp"
#include "sim/rng.hpp"

namespace sensrep::geometry {
namespace {

// --- Vec2 ------------------------------------------------------------------

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -4.0};
  EXPECT_EQ(a + b, (Vec2{4.0, -2.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 6.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(b / 2.0, (Vec2{1.5, -2.0}));
  EXPECT_EQ(-a, (Vec2{-1.0, -2.0}));
}

TEST(Vec2Test, DotAndCross) {
  EXPECT_DOUBLE_EQ(dot({1, 0}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(dot({2, 3}, {4, 5}), 23.0);
  EXPECT_DOUBLE_EQ(cross({1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(cross({0, 1}, {1, 0}), -1.0);
}

TEST(Vec2Test, NormAndDistance) {
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {4, 5}), 5.0);
  EXPECT_DOUBLE_EQ(distance2({1, 1}, {4, 5}), 25.0);
}

TEST(Vec2Test, NormalizedHandlesZero) {
  EXPECT_EQ(normalized({0, 0}), (Vec2{0, 0}));
  const Vec2 u = normalized({10, 0});
  EXPECT_DOUBLE_EQ(u.x, 1.0);
  EXPECT_DOUBLE_EQ(u.y, 0.0);
}

TEST(Vec2Test, OrientSign) {
  EXPECT_GT(orient({0, 0}, {1, 0}, {1, 1}), 0.0);  // left turn (CCW)
  EXPECT_LT(orient({0, 0}, {1, 0}, {1, -1}), 0.0);
  EXPECT_DOUBLE_EQ(orient({0, 0}, {1, 0}, {2, 0}), 0.0);
}

TEST(Vec2Test, PerpIsCounterclockwise) {
  EXPECT_EQ(perp({1, 0}), (Vec2{0, 1}));
  EXPECT_EQ(perp({0, 1}), (Vec2{-1, 0}));
}

TEST(Vec2Test, LerpAndMidpoint) {
  EXPECT_EQ(midpoint({0, 0}, {2, 4}), (Vec2{1, 2}));
  EXPECT_EQ(lerp({0, 0}, {10, 10}, 0.3), (Vec2{3, 3}));
}

TEST(Vec2Test, AngleOf) {
  EXPECT_DOUBLE_EQ(angle_of({1, 0}), 0.0);
  EXPECT_NEAR(angle_of({0, 1}), M_PI / 2.0, 1e-12);
  EXPECT_NEAR(angle_of({-1, 0}), M_PI, 1e-12);
}

// --- Rect -----------------------------------------------------------------

TEST(RectTest, Basics) {
  const Rect r = Rect::sized(400.0, 200.0);
  EXPECT_DOUBLE_EQ(r.width(), 400.0);
  EXPECT_DOUBLE_EQ(r.height(), 200.0);
  EXPECT_DOUBLE_EQ(r.area(), 80000.0);
  EXPECT_EQ(r.center(), (Vec2{200.0, 100.0}));
}

TEST(RectTest, ContainsIsClosed) {
  const Rect r = Rect::sized(10, 10);
  EXPECT_TRUE(r.contains({0, 0}));
  EXPECT_TRUE(r.contains({10, 10}));
  EXPECT_TRUE(r.contains({5, 5}));
  EXPECT_FALSE(r.contains({10.001, 5}));
  EXPECT_FALSE(r.contains({-0.001, 5}));
}

TEST(RectTest, ClampProjectsInside) {
  const Rect r = Rect::sized(10, 10);
  EXPECT_EQ(r.clamp({-5, 5}), (Vec2{0, 5}));
  EXPECT_EQ(r.clamp({15, 20}), (Vec2{10, 10}));
  EXPECT_EQ(r.clamp({3, 4}), (Vec2{3, 4}));
}

TEST(RectTest, Inflated) {
  const Rect r = Rect::sized(10, 10).inflated(2.0);
  EXPECT_EQ(r.min, (Vec2{-2, -2}));
  EXPECT_EQ(r.max, (Vec2{12, 12}));
}

// --- Segment ----------------------------------------------------------------

TEST(SegmentTest, ProperIntersection) {
  const Segment a{{0, 0}, {10, 10}};
  const Segment b{{0, 10}, {10, 0}};
  EXPECT_TRUE(segments_intersect(a, b));
  const auto p = segment_intersection(a, b);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(almost_equal(*p, {5, 5}));
}

TEST(SegmentTest, NoIntersection) {
  const Segment a{{0, 0}, {1, 1}};
  const Segment b{{2, 2}, {3, 1}};
  EXPECT_FALSE(segments_intersect(a, b));
  EXPECT_FALSE(segment_intersection(a, b).has_value());
}

TEST(SegmentTest, TouchingEndpointsCount) {
  const Segment a{{0, 0}, {5, 5}};
  const Segment b{{5, 5}, {9, 0}};
  EXPECT_TRUE(segments_intersect(a, b));
  const auto p = segment_intersection(a, b);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(almost_equal(*p, {5, 5}));
}

TEST(SegmentTest, ParallelDisjoint) {
  const Segment a{{0, 0}, {10, 0}};
  const Segment b{{0, 1}, {10, 1}};
  EXPECT_FALSE(segments_intersect(a, b));
  EXPECT_FALSE(segment_intersection(a, b).has_value());
}

TEST(SegmentTest, CollinearOverlapDetected) {
  const Segment a{{0, 0}, {10, 0}};
  const Segment b{{5, 0}, {15, 0}};
  EXPECT_TRUE(segments_intersect(a, b));
  const auto p = segment_intersection(a, b);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->y, 0.0);
  EXPECT_GE(p->x, 0.0);
  EXPECT_LE(p->x, 10.0);
}

TEST(SegmentTest, PointDistance) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(point_segment_distance({5, 3}, s), 3.0);
  EXPECT_DOUBLE_EQ(point_segment_distance({-3, 4}, s), 5.0);  // clamps to endpoint
  EXPECT_DOUBLE_EQ(point_segment_distance({13, 4}, s), 5.0);
}

TEST(SegmentTest, ClosestPointDegenerate) {
  const Segment s{{2, 2}, {2, 2}};
  EXPECT_EQ(closest_point_on_segment({5, 6}, s), (Vec2{2, 2}));
}

// --- ConvexPolygon --------------------------------------------------------------

TEST(PolygonTest, RectConversionAreaAndCentroid) {
  const auto poly = ConvexPolygon::from_rect(Rect::sized(4, 2));
  EXPECT_FALSE(poly.empty());
  EXPECT_DOUBLE_EQ(poly.area(), 8.0);
  EXPECT_TRUE(almost_equal(poly.centroid(), {2, 1}));
}

TEST(PolygonTest, NormalizesClockwiseInput) {
  const ConvexPolygon poly({{0, 0}, {0, 2}, {2, 2}, {2, 0}});  // clockwise
  EXPECT_DOUBLE_EQ(poly.area(), 4.0);  // positive after normalization
}

TEST(PolygonTest, Contains) {
  const auto poly = ConvexPolygon::from_rect(Rect::sized(10, 10));
  EXPECT_TRUE(poly.contains({5, 5}));
  EXPECT_TRUE(poly.contains({0, 0}));   // boundary inclusive
  EXPECT_TRUE(poly.contains({10, 5}));  // edge
  EXPECT_FALSE(poly.contains({10.01, 5}));
  EXPECT_FALSE(poly.contains({-1, -1}));
}

TEST(PolygonTest, HalfPlaneClipKeepsExpectedSide) {
  const auto square = ConvexPolygon::from_rect(Rect::sized(10, 10));
  // Keep x <= 4.
  const auto clipped = square.clip_half_plane({1, 0}, 4.0);
  EXPECT_NEAR(clipped.area(), 40.0, 1e-9);
  EXPECT_TRUE(clipped.contains({2, 5}));
  EXPECT_FALSE(clipped.contains({6, 5}));
}

TEST(PolygonTest, ClipAwayEverythingYieldsEmpty) {
  const auto square = ConvexPolygon::from_rect(Rect::sized(10, 10));
  const auto clipped = square.clip_half_plane({1, 0}, -5.0);  // x <= -5
  EXPECT_TRUE(clipped.empty());
  EXPECT_DOUBLE_EQ(clipped.area(), 0.0);
}

TEST(PolygonTest, ClipCloserToBisectsSquare) {
  const auto square = ConvexPolygon::from_rect(Rect::sized(10, 10));
  const auto left = square.clip_closer_to({2, 5}, {8, 5});
  EXPECT_NEAR(left.area(), 50.0, 1e-9);
  EXPECT_TRUE(left.contains({1, 5}));
  EXPECT_FALSE(left.contains({9, 5}));
}

TEST(PolygonTest, RepeatedClipsStayConsistent) {
  auto poly = ConvexPolygon::from_rect(Rect::sized(10, 10));
  poly = poly.clip_half_plane({1, 0}, 7.0);    // x <= 7
  poly = poly.clip_half_plane({-1, 0}, -3.0);  // x >= 3
  poly = poly.clip_half_plane({0, 1}, 6.0);    // y <= 6
  EXPECT_NEAR(poly.area(), 4.0 * 6.0, 1e-9);
}

// --- Voronoi --------------------------------------------------------------------

TEST(VoronoiTest, SingleSiteOwnsWholeField) {
  const Rect bounds = Rect::sized(100, 100);
  const VoronoiDiagram vd({{50, 50}}, bounds);
  EXPECT_NEAR(vd.cell(0).area(), bounds.area(), 1e-6);
}

TEST(VoronoiTest, TwoSitesSplitAtBisector) {
  const Rect bounds = Rect::sized(100, 100);
  const VoronoiDiagram vd({{25, 50}, {75, 50}}, bounds);
  EXPECT_NEAR(vd.cell(0).area(), 5000.0, 1e-6);
  EXPECT_NEAR(vd.cell(1).area(), 5000.0, 1e-6);
  EXPECT_TRUE(vd.cell(0).contains({10, 50}));
  EXPECT_TRUE(vd.cell(1).contains({90, 50}));
}

TEST(VoronoiTest, CellAreasTileTheField) {
  sim::Rng rng(2024);
  const Rect bounds = Rect::sized(400, 400);
  std::vector<Vec2> sites;
  for (int i = 0; i < 9; ++i) {
    sites.push_back({rng.uniform(0, 400), rng.uniform(0, 400)});
  }
  const VoronoiDiagram vd(sites, bounds);
  double total = 0.0;
  for (std::size_t i = 0; i < vd.site_count(); ++i) total += vd.cell(i).area();
  EXPECT_NEAR(total, bounds.area(), 1e-6);
}

TEST(VoronoiTest, NearestSiteAgreesWithCellMembership) {
  sim::Rng rng(7);
  const Rect bounds = Rect::sized(200, 200);
  std::vector<Vec2> sites;
  for (int i = 0; i < 5; ++i) sites.push_back({rng.uniform(0, 200), rng.uniform(0, 200)});
  const VoronoiDiagram vd(sites, bounds);
  for (int t = 0; t < 500; ++t) {
    const Vec2 p{rng.uniform(0, 200), rng.uniform(0, 200)};
    const std::size_t nearest = vd.nearest_site(p);
    EXPECT_TRUE(vd.in_cell(nearest, p))
        << "point " << p.x << "," << p.y << " not in nearest cell " << nearest;
  }
}

TEST(VoronoiTest, FloodRegionGrowsWithFringe) {
  const Rect bounds = Rect::sized(400, 200);
  const VoronoiDiagram vd({{100, 100}, {300, 100}}, bounds);
  const double base = vd.flood_region_area(0, {100, 100}, 0.0);
  const double fringed = vd.flood_region_area(0, {100, 100}, 63.0);
  EXPECT_NEAR(base, 40000.0, 2000.0);  // half the field, grid-sampling tolerance
  // A fringe of f adds a band of width ~f/2 along the bisector (the distance
  // difference grows ~2 m per meter crossed): ~200 * 31.5 ≈ 6300 m^2.
  EXPECT_NEAR(fringed - base, 6300.0, 2000.0);
}

// --- Partitions ------------------------------------------------------------------

TEST(SquarePartitionTest, PerfectSquareFactorization) {
  const auto p = SquarePartition::squares(Rect::sized(800, 800), 16);
  EXPECT_EQ(p.rows(), 4u);
  EXPECT_EQ(p.cols(), 4u);
  EXPECT_EQ(p.size(), 16u);
}

TEST(SquarePartitionTest, CellOfCenterRoundTrips) {
  const auto p = SquarePartition::squares(Rect::sized(600, 600), 9);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.cell_of(p.center(i)), i);
  }
}

TEST(SquarePartitionTest, OutOfFieldPointsClampToNearestCell) {
  const auto p = SquarePartition::squares(Rect::sized(400, 400), 4);
  EXPECT_EQ(p.cell_of({-10, -10}), 0u);
  EXPECT_EQ(p.cell_of({500, 500}), 3u);
}

TEST(SquarePartitionTest, NonSquareCountFallsBackToRows) {
  const auto p = SquarePartition::squares(Rect::sized(600, 200), 6);
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.rows() * p.cols(), 6u);
}

TEST(SquarePartitionTest, CellRectsTile) {
  const auto p = SquarePartition::squares(Rect::sized(400, 400), 4);
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) total += p.cell_rect(i).area();
  EXPECT_DOUBLE_EQ(total, 400.0 * 400.0);
}

TEST(SquarePartitionTest, RejectsZero) {
  EXPECT_THROW(SquarePartition::squares(Rect::sized(10, 10), 0), std::invalid_argument);
}

TEST(HexPartitionTest, ExactCellCount) {
  for (const std::size_t n : {1u, 4u, 9u, 16u, 7u}) {
    const HexPartition p(Rect::sized(800, 800), n);
    EXPECT_EQ(p.size(), n);
  }
}

TEST(HexPartitionTest, CentersInsideBounds) {
  const Rect bounds = Rect::sized(600, 600);
  const HexPartition p(bounds, 9);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_TRUE(bounds.contains(p.center(i)));
  }
}

TEST(HexPartitionTest, CellOfIsNearestCenter) {
  const HexPartition p(Rect::sized(400, 400), 4);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.cell_of(p.center(i)), i);
  }
}

}  // namespace
}  // namespace sensrep::geometry
