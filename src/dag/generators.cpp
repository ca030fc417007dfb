#include "dag/generators.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace edgesched::dag {

namespace {

double sample_cost(Rng& rng, double lo, double hi) {
  // The paper draws integer costs U(i, j); we keep that discreteness.
  return static_cast<double>(
      rng.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(hi)));
}

}  // namespace

TaskGraph random_layered(const LayeredDagParams& params, Rng& rng) {
  throw_if(params.num_tasks == 0, "random_layered: num_tasks must be > 0");
  throw_if(params.width_factor <= 0.0,
           "random_layered: width_factor must be positive");
  throw_if(params.comp_min > params.comp_max || params.comp_min < 0.0,
           "random_layered: bad computation cost range");
  throw_if(params.comm_min > params.comm_max || params.comm_min < 0.0,
           "random_layered: bad communication cost range");
  throw_if(params.in_degree_min == 0 ||
               params.in_degree_min > params.in_degree_max,
           "random_layered: bad in-degree range");

  TaskGraphBuilder graph("random_layered");

  // Partition tasks into layers whose mean width is
  // width_factor * sqrt(num_tasks).
  const double mean_width = std::max(
      1.0, params.width_factor * std::sqrt(static_cast<double>(
               params.num_tasks)));
  std::vector<std::vector<TaskId>> layers;
  std::size_t placed = 0;
  while (placed < params.num_tasks) {
    const std::size_t remaining = params.num_tasks - placed;
    const auto lo = static_cast<std::int64_t>(
        std::max(1.0, std::floor(mean_width * 0.5)));
    const auto hi = static_cast<std::int64_t>(
        std::max<double>(static_cast<double>(lo), std::ceil(mean_width * 1.5)));
    std::size_t width = static_cast<std::size_t>(rng.uniform_int(lo, hi));
    width = std::min(width, remaining);
    std::vector<TaskId> layer;
    layer.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      layer.push_back(graph.add_task(
          sample_cost(rng, params.comp_min, params.comp_max)));
    }
    layers.push_back(std::move(layer));
    placed += width;
  }

  // Each task of layer l+1 draws its predecessors from layer l.
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    for (TaskId dst : layers[l + 1]) {
      const std::size_t width = layers[l].size();
      std::size_t degree = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(params.in_degree_min),
          static_cast<std::int64_t>(params.in_degree_max)));
      degree = std::min(degree, width);
      std::vector<TaskId> candidates = layers[l];
      rng.shuffle(candidates);
      for (std::size_t k = 0; k < degree; ++k) {
        graph.add_edge(candidates[k], dst,
                       sample_cost(rng, params.comm_min, params.comm_max));
      }
    }
  }

  // Skip edges across more than one layer create richer precedence.
  for (std::size_t l = 0; l + 2 < layers.size(); ++l) {
    for (TaskId src : layers[l]) {
      if (!rng.bernoulli(params.skip_edge_probability)) {
        continue;
      }
      const std::size_t target_layer = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(l) + 2,
                          static_cast<std::int64_t>(layers.size()) - 1));
      const TaskId dst =
          layers[target_layer][rng.index(layers[target_layer].size())];
      // Duplicate skip edges are possible with small layer counts; they
      // carry no information, so skip rather than throw.
      if (!graph.has_edge(src, dst)) {
        graph.add_edge(src, dst,
                       sample_cost(rng, params.comm_min, params.comm_max));
      }
    }
  }

  // Connectivity pass: every non-entry-layer task gets a predecessor from
  // the previous layer; every non-exit-layer task gets a successor in the
  // next layer.
  for (std::size_t l = 1; l < layers.size(); ++l) {
    for (TaskId task : layers[l]) {
      if (graph.in_degree(task) == 0) {
        const TaskId src = layers[l - 1][rng.index(layers[l - 1].size())];
        graph.add_edge(src, task,
                       sample_cost(rng, params.comm_min, params.comm_max));
      }
    }
  }
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    for (TaskId task : layers[l]) {
      if (graph.out_degree(task) == 0) {
        const TaskId dst = layers[l + 1][rng.index(layers[l + 1].size())];
        if (!graph.has_edge(task, dst)) {
          graph.add_edge(task, dst,
                         sample_cost(rng, params.comm_min, params.comm_max));
        }
      }
    }
  }

  return graph.build();
}

TaskGraph chain(std::size_t length, double comp_cost, double comm_cost) {
  throw_if(length == 0, "chain: length must be > 0");
  TaskGraphBuilder graph("chain");
  TaskId prev = graph.add_task(comp_cost);
  for (std::size_t i = 1; i < length; ++i) {
    const TaskId next = graph.add_task(comp_cost);
    graph.add_edge(prev, next, comm_cost);
    prev = next;
  }
  return graph.build();
}

TaskGraph fork(std::size_t fanout, double comp_cost, double comm_cost) {
  throw_if(fanout == 0, "fork: fanout must be > 0");
  TaskGraphBuilder graph("fork");
  const TaskId source = graph.add_task(comp_cost, "source");
  for (std::size_t i = 0; i < fanout; ++i) {
    const TaskId sink = graph.add_task(comp_cost);
    graph.add_edge(source, sink, comm_cost);
  }
  return graph.build();
}

TaskGraph join(std::size_t fanin, double comp_cost, double comm_cost) {
  throw_if(fanin == 0, "join: fanin must be > 0");
  TaskGraphBuilder graph("join");
  std::vector<TaskId> sources;
  sources.reserve(fanin);
  for (std::size_t i = 0; i < fanin; ++i) {
    sources.push_back(graph.add_task(comp_cost));
  }
  const TaskId sink = graph.add_task(comp_cost, "sink");
  for (TaskId src : sources) {
    graph.add_edge(src, sink, comm_cost);
  }
  return graph.build();
}

TaskGraph fork_join(std::size_t width, double comp_cost, double comm_cost) {
  throw_if(width == 0, "fork_join: width must be > 0");
  TaskGraphBuilder graph("fork_join");
  const TaskId source = graph.add_task(comp_cost, "source");
  const TaskId sink = graph.add_task(comp_cost, "sink");
  for (std::size_t i = 0; i < width; ++i) {
    const TaskId middle = graph.add_task(comp_cost);
    graph.add_edge(source, middle, comm_cost);
    graph.add_edge(middle, sink, comm_cost);
  }
  return graph.build();
}

TaskGraph out_tree(std::size_t levels, double comp_cost, double comm_cost) {
  throw_if(levels == 0, "out_tree: levels must be > 0");
  TaskGraphBuilder graph("out_tree");
  const std::size_t count = (std::size_t{1} << levels) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    graph.add_task(comp_cost);
  }
  for (std::size_t i = 0; 2 * i + 2 < count + 1; ++i) {
    graph.add_edge(TaskId(i), TaskId(2 * i + 1), comm_cost);
    if (2 * i + 2 < count) {
      graph.add_edge(TaskId(i), TaskId(2 * i + 2), comm_cost);
    }
  }
  return graph.build();
}

TaskGraph in_tree(std::size_t levels, double comp_cost, double comm_cost) {
  throw_if(levels == 0, "in_tree: levels must be > 0");
  TaskGraphBuilder graph("in_tree");
  const std::size_t count = (std::size_t{1} << levels) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    graph.add_task(comp_cost);
  }
  for (std::size_t i = 0; 2 * i + 2 < count + 1; ++i) {
    graph.add_edge(TaskId(2 * i + 1), TaskId(i), comm_cost);
    if (2 * i + 2 < count) {
      graph.add_edge(TaskId(2 * i + 2), TaskId(i), comm_cost);
    }
  }
  return graph.build();
}

TaskGraph fft(std::size_t points, double comp_cost, double comm_cost) {
  throw_if(points == 0 || (points & (points - 1)) != 0,
           "fft: points must be a power of two");
  TaskGraphBuilder graph("fft");
  std::size_t stages = 0;
  for (std::size_t p = points; p > 1; p >>= 1) {
    ++stages;
  }
  // (stages + 1) rows of `points` tasks.
  std::vector<std::vector<TaskId>> rows(stages + 1);
  for (std::size_t r = 0; r <= stages; ++r) {
    rows[r].reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
      rows[r].push_back(graph.add_task(
          comp_cost, "f" + std::to_string(r) + "_" + std::to_string(i)));
    }
  }
  // Butterfly: at stage r, element i pairs with i XOR 2^(stages-1-r).
  for (std::size_t r = 0; r < stages; ++r) {
    const std::size_t stride = std::size_t{1} << (stages - 1 - r);
    for (std::size_t i = 0; i < points; ++i) {
      graph.add_edge(rows[r][i], rows[r + 1][i], comm_cost);
      graph.add_edge(rows[r][i ^ stride], rows[r + 1][i], comm_cost);
    }
  }
  return graph.build();
}

TaskGraph gaussian_elimination(std::size_t m, double comp_cost,
                               double comm_cost) {
  throw_if(m < 2, "gaussian_elimination: matrix dimension must be >= 2");
  TaskGraphBuilder graph("gaussian_elimination");
  TaskId prev_pivot;
  std::vector<TaskId> prev_updates;
  for (std::size_t k = 0; k + 1 < m; ++k) {
    const TaskId pivot =
        graph.add_task(comp_cost, "pivot" + std::to_string(k));
    if (k > 0) {
      // The pivot of step k is the first row-head updated in step k-1.
      graph.add_edge(prev_updates.front(), pivot, comm_cost);
    }
    std::vector<TaskId> updates;
    for (std::size_t r = k + 1; r < m; ++r) {
      const TaskId update = graph.add_task(
          comp_cost, "upd" + std::to_string(k) + "_" + std::to_string(r));
      graph.add_edge(pivot, update, comm_cost);
      if (k > 0) {
        // Row r was also touched by the previous elimination step.
        graph.add_edge(prev_updates[r - k], update, comm_cost);
      }
      updates.push_back(update);
    }
    prev_pivot = pivot;
    prev_updates = std::move(updates);
  }
  (void)prev_pivot;
  return graph.build();
}

TaskGraph stencil_1d(std::size_t steps, std::size_t points, double comp_cost,
                     double comm_cost) {
  throw_if(steps == 0 || points == 0,
           "stencil_1d: steps and points must be > 0");
  TaskGraphBuilder graph("stencil_1d");
  std::vector<std::vector<TaskId>> rows(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    rows[t].reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
      rows[t].push_back(graph.add_task(
          comp_cost, "s" + std::to_string(t) + "_" + std::to_string(i)));
    }
  }
  for (std::size_t t = 0; t + 1 < steps; ++t) {
    for (std::size_t i = 0; i < points; ++i) {
      graph.add_edge(rows[t][i], rows[t + 1][i], comm_cost);
      if (i > 0) {
        graph.add_edge(rows[t][i - 1], rows[t + 1][i], comm_cost);
      }
      if (i + 1 < points) {
        graph.add_edge(rows[t][i + 1], rows[t + 1][i], comm_cost);
      }
    }
  }
  return graph.build();
}

TaskGraph cholesky(std::size_t tiles, double tile_flops,
                   double tile_volume) {
  throw_if(tiles == 0, "cholesky: tiles must be > 0");
  throw_if(tile_flops <= 0.0 || tile_volume < 0.0,
           "cholesky: bad cost parameters");
  TaskGraphBuilder graph("cholesky");

  // Dataflow construction: every kernel reads/writes tiles; an edge runs
  // from the last writer of each tile a kernel touches.
  std::vector<std::vector<TaskId>> last_writer(
      tiles, std::vector<TaskId>(tiles));
  const auto depend = [&](TaskId task, TaskId writer) {
    if (!writer.valid() || writer == task) {
      return;
    }
    if (!graph.has_edge(writer, task)) {
      graph.add_edge(writer, task, tile_volume);
    }
  };

  for (std::size_t k = 0; k < tiles; ++k) {
    const TaskId potrf = graph.add_task(
        tile_flops / 3.0, "potrf_" + std::to_string(k));
    depend(potrf, last_writer[k][k]);
    last_writer[k][k] = potrf;

    for (std::size_t i = k + 1; i < tiles; ++i) {
      const TaskId trsm = graph.add_task(
          tile_flops, "trsm_" + std::to_string(i) + "_" +
                          std::to_string(k));
      depend(trsm, last_writer[k][k]);  // the factorised diagonal tile
      depend(trsm, last_writer[i][k]);  // the panel tile being solved
      last_writer[i][k] = trsm;
    }
    for (std::size_t i = k + 1; i < tiles; ++i) {
      for (std::size_t j = k + 1; j <= i; ++j) {
        const bool is_syrk = (i == j);
        const TaskId update = graph.add_task(
            is_syrk ? tile_flops : 2.0 * tile_flops,
            (is_syrk ? "syrk_" : "gemm_") + std::to_string(i) + "_" +
                std::to_string(j) + "_" + std::to_string(k));
        depend(update, last_writer[i][k]);
        if (!is_syrk) {
          depend(update, last_writer[j][k]);
        }
        depend(update, last_writer[i][j]);  // accumulation chain
        last_writer[i][j] = update;
      }
    }
  }
  return graph.build();
}

TaskGraph diamond(std::size_t side, double comp_cost, double comm_cost) {
  throw_if(side == 0, "diamond: side must be > 0");
  TaskGraphBuilder graph("diamond");
  std::vector<std::vector<TaskId>> grid(side);
  for (std::size_t i = 0; i < side; ++i) {
    grid[i].reserve(side);
    for (std::size_t j = 0; j < side; ++j) {
      grid[i].push_back(graph.add_task(
          comp_cost, "d" + std::to_string(i) + "_" + std::to_string(j)));
    }
  }
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) {
      if (i + 1 < side) {
        graph.add_edge(grid[i][j], grid[i + 1][j], comm_cost);
      }
      if (j + 1 < side) {
        graph.add_edge(grid[i][j], grid[i][j + 1], comm_cost);
      }
    }
  }
  return graph.build();
}

}  // namespace edgesched::dag
