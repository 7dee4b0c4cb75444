// sweep.hpp — multi-seed campaign sweeps on top of runner::Pool.
//
// A sweep runs N independent cells — one (config, seed) pair each — and
// folds the per-cell results into one. The determinism contract:
//
//   * every cell derives its seed from (base seed, cell index) alone
//     (cell_seed below), never from scheduling;
//   * each cell writes only its own slot of a pre-sized result vector;
//   * the merge folds slots in cell-id order, never in completion order.
//
// run_indexed() below is the one primitive that keeps the last two; the
// campaign sweeps and the bench/example grids all fan out through it.
//
// Consequence: --jobs=1 and --jobs=32 produce bit-identical merged results,
// and cell 0 of a 1-cell sweep reproduces the unswept campaign exactly.
//
// Campaign is any type with a `Config` (holding a `std::uint64_t seed`), a
// default-constructible `Result`, and `static Result run(const Config&)` —
// i.e. every measure:: campaign and fleet::FleetCampaign. run_merged()
// additionally needs the Result to list its fields (stats/fold.hpp), which
// it folds through stats::merge, the one fold every campaign shares.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "runner/pool.hpp"
#include "stats/fold.hpp"

namespace slp::runner {

struct SweepConfig {
  int seeds = 1;  ///< number of cells (independent seed replications)
  int jobs = 1;   ///< pool width; 0 = hardware concurrency
};

/// Seed for cell `cell` of a sweep based at `base`. Cell 0 *is* the base
/// seed, so a 1-cell sweep reproduces the plain campaign; later cells are
/// decorrelated through splitmix64 finalization.
[[nodiscard]] constexpr std::uint64_t cell_seed(std::uint64_t base, std::uint64_t cell) {
  if (cell == 0) return base;
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * cell;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Runs `fn(i)` for every i < n on `pool` and returns the results indexed by
/// i (NOT completion order) — the one place that fans cells out. Each task
/// writes only its own slot of the pre-sized vector, and the pool is drained
/// once, so callers fold the returned vector in index order. `fn` is shared
/// by every task: it must derive everything (seed included) from `i` and
/// captured read-only state. Its result type must be default-constructible.
template <typename Fn>
[[nodiscard]] auto run_indexed(Pool& pool, std::size_t n, const Fn& fn)
    -> std::vector<std::invoke_result_t<const Fn&, std::size_t>> {
  using Result = std::invoke_result_t<const Fn&, std::size_t>;
  // std::vector<bool> packs slots into shared words: concurrent writes race.
  static_assert(!std::is_same_v<Result, bool>, "run_indexed cannot return bool");
  std::vector<Result> results(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&results, &fn, i] { results[i] = fn(i); });
  }
  pool.drain();
  return results;
}

/// Runs `sweep.seeds` copies of the campaign on `pool`, one per cell, each
/// with `config.seed` replaced by its cell seed. Returns results indexed by
/// cell id.
template <typename Campaign>
[[nodiscard]] std::vector<typename Campaign::Result> run_cells(
    Pool& pool, int seeds, const typename Campaign::Config& config) {
  const std::size_t n = seeds < 1 ? 1 : static_cast<std::size_t>(seeds);
  return run_indexed(pool, n, [&config](std::size_t cell) {
    typename Campaign::Config cfg = config;
    cfg.seed = cell_seed(config.seed, cell);
    return Campaign::run(cfg);
  });
}

/// Convenience: run_cells on a transient pool, folded left in cell order
/// through stats::merge.
template <typename Campaign>
[[nodiscard]] typename Campaign::Result run_merged(
    const SweepConfig& sweep, const typename Campaign::Config& config) {
  Pool pool{sweep.jobs};
  auto cells = run_cells<Campaign>(pool, sweep.seeds, config);
  typename Campaign::Result merged = std::move(cells.front());
  for (std::size_t i = 1; i < cells.size(); ++i) stats::merge(merged, cells[i]);
  return merged;
}

}  // namespace slp::runner
