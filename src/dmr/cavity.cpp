#include "dmr/cavity.hpp"

#include <algorithm>
#include <span>

namespace morph::dmr {

namespace {

/// Containment test used for cavity expansion: p strictly inside the
/// circumcircle of triangle t.
bool circum_contains(const Mesh& m, Tri t, Pt64 p, bool use_float) {
  const auto& v = m.verts(t);
  if (use_float) {
    const Pt<float> pf{static_cast<float>(p.x), static_cast<float>(p.y)};
    return incircle(m.point_f(v[0]), m.point_f(v[1]), m.point_f(v[2]), pf) >
           0.0f;
  }
  return incircle(m.point(v[0]), m.point(v[1]), m.point(v[2]), p) > 0.0;
}

struct ExpandResult {
  bool ok = true;
  // When a boundary frontier edge is encroached, the triangle/edge to split:
  bool encroached = false;
  Tri seg_tri = Mesh::kNone;
  int seg_edge = -1;
};

bool contains(const std::vector<Tri>& v, Tri t) {
  return std::find(v.begin(), v.end(), t) != v.end();
}

/// DFS expansion of the cavity of p from `start`, with `stack` as the
/// caller's scratch. Fills c.tris/frontier and adds to c.steps.
/// If `skip_tri/skip_edge` names a boundary segment (the one being split),
/// that edge is excluded from the frontier. `check_encroachment` is set for
/// refinement cavities only: a circumcenter inside the diametral circle of
/// a hull segment forces a segment split, whereas Bowyer-Watson insertion
/// points are real input points and never move.
ExpandResult expand(const Mesh& m, Pt64 p, Tri start, bool use_float,
                    Tri skip_tri, int skip_edge, bool check_encroachment,
                    Cavity& c, std::vector<Tri>& stack) {
  ExpandResult r;
  c.tris.clear();
  c.frontier.clear();
  stack.assign(1, start);
  while (!stack.empty()) {
    const Tri t = stack.back();
    stack.pop_back();
    c.tris.push_back(t);
    for (int e = 0; e < 3; ++e) {
      ++c.steps;
      const auto [a, b] = m.edge_verts(t, e);
      const Tri o = m.across(t, e);
      if (t == skip_tri && e == skip_edge) continue;  // segment being split
      if (o == Mesh::kBoundary) {
        // Hull edge on the frontier: check encroachment. (a,b) is ordered so
        // the interior is on its left; p beyond or inside the diametral
        // circle forces a segment split.
        const bool beyond = orient2d(m.point(a), m.point(b), p) <= 0;
        if (check_encroachment &&
            (beyond || in_diametral_circle(m.point(a), m.point(b), p))) {
          r.ok = false;
          r.encroached = true;
          r.seg_tri = t;
          r.seg_edge = e;
          return r;
        }
        c.frontier.push_back({a, b, Mesh::kBoundary});
        continue;
      }
      MORPH_CHECK(o != Mesh::kNone);
      // Everything enqueued so far is either visited (in tris) or still on
      // the stack; cavities hold a handful of triangles, so two linear scans
      // beat any hashed visited set.
      if (contains(c.tris, o) || contains(stack, o)) continue;
      if (circum_contains(m, o, p, use_float)) {
        stack.push_back(o);
      } else {
        c.frontier.push_back({a, b, o});
      }
    }
  }
  return r;
}

/// Resets every result field of `c`; its vectors keep their storage.
void reset(Cavity& c, Pt64 center) {
  c.ok = false;
  c.center = center;
  c.tris.clear();
  c.frontier.clear();
  c.open_fan = false;
  c.fan_start = c.fan_end = 0;
  c.steps = 0;
}

}  // namespace

void Cavity::neighborhood(std::vector<Tri>& out) const {
  out.assign(tris.begin(), tris.end());
  for (const FrontierEdge& f : frontier) {
    if (f.outside != Mesh::kBoundary) out.push_back(f.outside);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void build_insertion_cavity(const Mesh& m, Tri start, Pt64 p, Cavity& out) {
  reset(out, p);
  const ExpandResult r =
      expand(m, p, start, /*use_float=*/false, Mesh::kNone, -1,
             /*check_encroachment=*/false, out, out.stack_);
  MORPH_CHECK_MSG(r.ok, "insertion cavity expansion failed");
  out.ok = true;
}

void build_refinement_cavity(const Mesh& m, Tri bad, bool use_float,
                             Cavity& out) {
  // First attempt: the circumcenter of the bad triangle.
  const auto& v = m.verts(bad);
  reset(out, circumcenter(m.point(v[0]), m.point(v[1]), m.point(v[2])));
  Tri start = bad;
  Tri skip_tri = Mesh::kNone;
  int skip_edge = -1;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const ExpandResult r =
        expand(m, out.center, start, use_float, skip_tri, skip_edge,
               /*check_encroachment=*/true, out, out.stack_);
    if (r.ok) {
      out.ok = true;
      if (skip_edge >= 0) {
        out.open_fan = true;
        const auto [a, b] = m.edge_verts(skip_tri, skip_edge);
        out.fan_start = a;
        out.fan_end = b;
      }
      return;
    }
    // Encroached boundary segment: split it at its midpoint instead
    // (Ruppert's rule; may cascade to another segment).
    MORPH_CHECK(r.encroached);
    skip_tri = r.seg_tri;
    skip_edge = r.seg_edge;
    const auto [a, b] = m.edge_verts(skip_tri, skip_edge);
    out.center = midpoint(m.point(a), m.point(b));
    start = skip_tri;
  }
  MORPH_CHECK_MSG(false, "segment-split cascade did not settle");
}

RetriangulateResult retriangulate(Mesh& m, const Cavity& c, double cos_bound,
                                  std::vector<Tri>& out_new,
                                  core::SlotRecycler* recycler) {
  MORPH_CHECK(c.ok);
  MORPH_CHECK(!c.tris.empty());
  RetriangulateResult res;
  const Vtx p = m.add_point(c.center.x, c.center.y);
  res.new_vertex = p;

  for (Tri t : c.tris) m.mark_deleted(t);

  // Create the fan of new triangles, one per frontier edge: frontier[i]
  // becomes created[i].
  const std::size_t n = c.frontier.size();
  const std::size_t base = out_new.size();
  for (const FrontierEdge& f : c.frontier) {
    Tri slot = Mesh::kNone;
    if (recycler) {
      if (auto s = recycler->take()) slot = *s;
    }
    if (slot == Mesh::kNone) {
      slot = m.add_triangle(p, f.a, f.b);
    } else {
      m.write_triangle(slot, p, f.a, f.b);
    }
    out_new.push_back(slot);
  }
  const std::span<const Tri> created(out_new.data() + base, n);

  // Wire adjacencies. Across the frontier edge: the outside triangle (or
  // boundary).
  for (std::size_t i = 0; i < n; ++i) {
    const Tri nt = created[i];
    const FrontierEdge& f = c.frontier[i];
    m.set_neighbor(nt, m.edge_index(nt, f.a, f.b), f.outside);
    if (f.outside != Mesh::kBoundary) {
      const int back = m.edge_index(f.outside, f.a, f.b);
      m.set_neighbor(f.outside, back, nt);
    }
  }
  // Around the fan: the triangles sharing a (p, w) edge pair up; in an open
  // fan the two extreme (p, w) edges become new hull edges. Each fan vertex
  // is paired at its first frontier occurrence by scanning the later edges
  // for its other one.
  const auto touches = [&](std::size_t j, Vtx w) {
    return c.frontier[j].a == w || c.frontier[j].b == w;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (Vtx w : {c.frontier[i].a, c.frontier[i].b}) {
      bool seen = false;
      for (std::size_t j = 0; j < i && !seen; ++j) seen = touches(j, w);
      if (seen) continue;
      const Tri t1 = created[i];
      Tri t2 = Mesh::kNone;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!touches(j, w)) continue;
        MORPH_CHECK_MSG(t2 == Mesh::kNone,
                        "fan vertex shared by more than two new triangles");
        t2 = created[j];
      }
      if (t2 == Mesh::kNone) {
        // Open-fan extreme: (p, w) is a new hull edge.
        MORPH_CHECK_MSG(c.open_fan && (w == c.fan_start || w == c.fan_end),
                        "dangling fan edge in a closed cavity");
        m.set_neighbor(t1, m.edge_index(t1, p, w), Mesh::kBoundary);
      } else {
        m.set_neighbor(t1, m.edge_index(t1, p, w), t2);
        m.set_neighbor(t2, m.edge_index(t2, p, w), t1);
      }
    }
  }

  for (Tri nt : created) {
    const bool bad = m.check_bad(nt, cos_bound);
    m.set_bad(nt, bad);
    res.new_bad += bad ? 1 : 0;
  }
  res.new_tris = static_cast<std::uint32_t>(n);
  return res;
}

Tri locate_triangle(const Mesh& m, Tri hint, Pt64 p, std::uint64_t* steps) {
  Tri t = hint;
  if (t == Mesh::kNone || t >= m.num_slots() || m.is_deleted(t)) t = Mesh::kNone;
  if (t != Mesh::kNone) {
    const std::uint64_t cap = 4 * (m.num_live() + 16);
    std::uint64_t walked = 0;
    while (walked++ < cap) {
      if (steps) ++*steps;
      bool moved = false;
      for (int e = 0; e < 3; ++e) {
        const auto [a, b] = m.edge_verts(t, e);
        if (orient2d(m.point(a), m.point(b), p) < 0) {
          const Tri o = m.across(t, e);
          if (o == Mesh::kBoundary) return Mesh::kNone;  // p outside hull
          t = o;
          moved = true;
          break;
        }
      }
      if (!moved) return t;  // p on the inside of all three edges
    }
  }
  // Fallback: linear scan (also covers a bad hint).
  for (Tri s = 0; s < m.num_slots(); ++s) {
    if (m.is_deleted(s)) continue;
    const auto& v = m.verts(s);
    if (orient2d(m.point(v[0]), m.point(v[1]), p) >= 0 &&
        orient2d(m.point(v[1]), m.point(v[2]), p) >= 0 &&
        orient2d(m.point(v[2]), m.point(v[0]), p) >= 0)
      return s;
  }
  return Mesh::kNone;
}

}  // namespace morph::dmr
