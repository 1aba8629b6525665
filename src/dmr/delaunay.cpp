#include "dmr/delaunay.hpp"

#include <algorithm>

#include "support/morton.hpp"
#include "support/rng.hpp"

namespace morph::dmr {

Mesh triangulate_square(std::span<const Pt64> points) {
  Mesh m;
  const Vtx c0 = m.add_point(0.0, 0.0);
  const Vtx c1 = m.add_point(1.0, 0.0);
  const Vtx c2 = m.add_point(1.0, 1.0);
  const Vtx c3 = m.add_point(0.0, 1.0);
  const Tri t0 = m.add_triangle(c0, c1, c2);
  const Tri t1 = m.add_triangle(c0, c2, c3);
  m.set_neighbor(t0, m.edge_index(t0, c0, c2), t1);
  m.set_neighbor(t1, m.edge_index(t1, c0, c2), t0);
  m.set_neighbor(t0, m.edge_index(t0, c0, c1), Mesh::kBoundary);
  m.set_neighbor(t0, m.edge_index(t0, c1, c2), Mesh::kBoundary);
  m.set_neighbor(t1, m.edge_index(t1, c2, c3), Mesh::kBoundary);
  m.set_neighbor(t1, m.edge_index(t1, c3, c0), Mesh::kBoundary);

  // Morton-sort the insertion order so each walk starts near its target.
  std::vector<std::uint32_t> order(points.size());
  for (std::uint32_t i = 0; i < points.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return morton_unit(points[a].x, points[a].y) <
           morton_unit(points[b].x, points[b].y);
  });

  Tri hint = t0;
  Cavity c;
  std::vector<Tri> created;
  const double cos_bound = cos_of_deg(30.0);
  for (std::uint32_t idx : order) {
    const Pt64 p = points[idx];
    MORPH_CHECK_MSG(p.x > 0.0 && p.x < 1.0 && p.y > 0.0 && p.y < 1.0,
                    "point outside the unit square");
    const Tri at = locate_triangle(m, hint, p, nullptr);
    MORPH_CHECK_MSG(at != Mesh::kNone, "point location failed");
    build_insertion_cavity(m, at, p, c);
    created.clear();
    retriangulate(m, c, cos_bound, created);
    hint = created.empty() ? Mesh::kNone : created.front();
  }
  return m;
}

Mesh generate_input_mesh(std::size_t target_triangles, std::uint64_t seed) {
  MORPH_CHECK(target_triangles >= 8);
  // A triangulation of n interior points + 4 corners of a square has
  // 2(n+4) - 2 - hull triangles ~= 2n + 2.
  const std::size_t n = target_triangles / 2;
  Rng rng(seed);
  std::vector<Pt64> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({0.001 + 0.998 * rng.next_double(),
                   0.001 + 0.998 * rng.next_double()});
  }
  Mesh m = triangulate_square(pts);
  // Randomize the slot order (this also drops Bowyer-Watson's tombstones):
  // meshes read from files carry no spatial locality in their on-disk
  // order; the Sec. 6.1 layout optimization is what repairs it.
  m.shuffle_slots(seed ^ 0x5eedu);
  return m;
}

bool is_delaunay(const Mesh& m, double eps) {
  for (Tri t = 0; t < m.num_slots(); ++t) {
    if (m.is_deleted(t)) continue;
    const auto& v = m.verts(t);
    for (int e = 0; e < 3; ++e) {
      const Tri o = m.across(t, e);
      if (o == Mesh::kBoundary || o == Mesh::kNone) continue;
      if (m.is_deleted(o)) return false;
      // Apex of o opposite the shared edge.
      const auto [a, b] = m.edge_verts(t, e);
      Vtx apex = Mesh::kNone;
      for (Vtx w : m.verts(o)) {
        if (w != a && w != b) apex = w;
      }
      if (apex == Mesh::kNone) return false;
      if (incircle(m.point(v[0]), m.point(v[1]), m.point(v[2]),
                   m.point(apex)) > eps)
        return false;
    }
  }
  return true;
}

}  // namespace morph::dmr
