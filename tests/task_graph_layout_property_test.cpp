// The flat `TaskGraph` layout against its definition, on seeded graphs:
// generated ones, random DAGs whose edges arrive in shuffled order, and
// graphs read back through both parsers. For every task, `in_edges` and
// `out_edges` must be the edge list filtered by endpoint, in edge-id
// (insertion) order; `fingerprint()` must hash exactly that list; and the
// edge list must be the `add_edge` calls in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "dag/serialization.hpp"
#include "dag/task_graph.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace edgesched::dag {
namespace {

std::uint64_t reference_fingerprint(const TaskGraph& graph) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(graph.num_tasks()));
  for (const TaskId t : graph.all_tasks()) {
    fp.mix(graph.weight(t));
  }
  fp.mix(static_cast<std::uint64_t>(graph.num_edges()));
  for (const EdgeId e : graph.all_edges()) {
    fp.mix(static_cast<std::uint64_t>(graph.edge(e).src.value()));
    fp.mix(static_cast<std::uint64_t>(graph.edge(e).dst.value()));
    fp.mix(graph.edge(e).cost);
  }
  return fp.value();
}

void expect_layout(const TaskGraph& graph, const std::string& label) {
  for (const TaskId t : graph.all_tasks()) {
    std::vector<EdgeId> in;
    std::vector<EdgeId> out;
    for (const EdgeId e : graph.all_edges()) {
      if (graph.edge(e).dst == t) {
        in.push_back(e);
      }
      if (graph.edge(e).src == t) {
        out.push_back(e);
      }
    }
    const auto in_span = graph.in_edges(t);
    const auto out_span = graph.out_edges(t);
    ASSERT_EQ(std::vector<EdgeId>(in_span.begin(), in_span.end()), in)
        << label << " task " << t.value();
    ASSERT_EQ(std::vector<EdgeId>(out_span.begin(), out_span.end()), out)
        << label << " task " << t.value();
  }
  EXPECT_EQ(graph.fingerprint(), reference_fingerprint(graph)) << label;
  EXPECT_EQ(graph.topological_order().size(), graph.num_tasks()) << label;
}

/// A random DAG: tasks get a random rank, and every pair ordered by rank
/// becomes an edge with some probability. The edges are added in
/// shuffled order, so ids follow neither task ids nor a topological
/// order. `added` receives them in call order.
TaskGraph shuffled_dag(Rng& rng, std::vector<Edge>& added) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 60));
  std::vector<std::size_t> rank(n);
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  rng.shuffle(rank);
  const double density = rng.uniform_real(0.0, 0.3);
  std::vector<Edge> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (rank[u] < rank[v] && rng.bernoulli(density)) {
        edges.push_back(Edge{TaskId(u), TaskId(v),
                             static_cast<double>(rng.uniform_int(0, 9))});
      }
    }
  }
  rng.shuffle(edges);
  TaskGraphBuilder builder("shuffled");
  for (std::size_t t = 0; t < n; ++t) {
    const double weight = static_cast<double>(rng.uniform_int(0, 9));
    const bool named = rng.bernoulli(0.3);
    (void)builder.add_task(weight,
                           named ? "t" + std::to_string(t) : std::string());
  }
  for (const Edge& e : edges) {
    EXPECT_FALSE(builder.has_edge(e.src, e.dst));
    (void)builder.add_edge(e.src, e.dst, e.cost);
    EXPECT_TRUE(builder.has_edge(e.src, e.dst));
  }
  added = edges;
  return builder.build();
}

/// STG text for a random DAG in STG shape: a zero-cost entry 0 and exit
/// n+1; every other task lists predecessors drawn from earlier ids in
/// shuffled order.
std::string random_stg(Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 30));
  std::ostringstream os;
  os << n << "\n0 0 0\n";
  std::vector<bool> has_successor(n + 2, false);
  for (std::size_t t = 1; t <= n; ++t) {
    std::vector<std::size_t> preds;
    for (std::size_t p = 1; p < t; ++p) {
      if (rng.bernoulli(0.2)) {
        preds.push_back(p);
      }
    }
    if (preds.empty()) {
      preds.push_back(0);
    }
    rng.shuffle(preds);
    os << t << ' ' << rng.uniform_int(1, 20) << ' ' << preds.size();
    for (const std::size_t p : preds) {
      os << ' ' << p;
      has_successor[p] = true;
    }
    os << "\n";
  }
  std::vector<std::size_t> sinks;
  for (std::size_t t = 1; t <= n; ++t) {
    if (!has_successor[t]) {
      sinks.push_back(t);
    }
  }
  os << n + 1 << " 0 " << sinks.size();
  for (const std::size_t s : sinks) {
    os << ' ' << s;
  }
  os << "\n";
  return os.str();
}

TEST(TaskGraphLayout, GeneratedGraphs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    LayeredDagParams params;
    params.num_tasks = static_cast<std::size_t>(rng.uniform_int(1, 300));
    params.skip_edge_probability = rng.uniform_real(0.0, 0.5);
    expect_layout(random_layered(params, rng),
                  "random_layered seed " + std::to_string(seed));
  }
  expect_layout(fft(16), "fft");
  expect_layout(cholesky(5, 3.0, 2.0), "cholesky");
  expect_layout(gaussian_elimination(6), "gaussian_elimination");
  expect_layout(stencil_1d(4, 5, 1.0, 1.0), "stencil_1d");
  expect_layout(diamond(4), "diamond");
  expect_layout(in_tree(4), "in_tree");
}

TEST(TaskGraphLayout, EdgesAddedInShuffledOrder) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<Edge> added;
    const TaskGraph graph = shuffled_dag(rng, added);
    const std::string label = "shuffled seed " + std::to_string(seed);
    ASSERT_EQ(graph.num_edges(), added.size()) << label;
    for (std::size_t i = 0; i < added.size(); ++i) {
      const Edge& e = graph.edge(EdgeId(i));
      ASSERT_EQ(e.src, added[i].src) << label;
      ASSERT_EQ(e.dst, added[i].dst) << label;
      ASSERT_EQ(e.cost, added[i].cost) << label;
    }
    expect_layout(graph, label);
  }
}

TEST(TaskGraphLayout, GraphsReadByBothParsers) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    std::vector<Edge> added;
    const TaskGraph graph = shuffled_dag(rng, added);
    std::ostringstream text;
    write_text(text, graph);
    std::istringstream in(text.str());
    const TaskGraph parsed = read_text(in);
    EXPECT_EQ(parsed.fingerprint(), graph.fingerprint());
    for (const TaskId t : graph.all_tasks()) {
      ASSERT_EQ(parsed.name(t), graph.name(t));
    }
    expect_layout(parsed, "read_text seed " + std::to_string(seed));

    std::istringstream stg(random_stg(rng));
    expect_layout(read_stg(stg), "read_stg seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace edgesched::dag
