// Microbenchmark of the SIMD-dispatched vecmath kernels and the batched PQ
// ADC scan: times the active dispatch tier against the portable scalar
// reference on the same data, asserts parity, prints a text table and writes
// BENCH_bench_kernels.json (op, dim, n, tier, ns/op, GB/s, speedup).
//
// `--quick` shrinks the workload for CI smoke runs (one dim, fewer rows,
// shorter timing windows); results stay directionally meaningful.
// `--filter <op>` runs only the measurements with that op name (e.g.
// `--filter adc_batch`), to time or parity-check one kernel alone.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "index/product_quantizer.h"
#include "vecmath/matrix.h"
#include "vecmath/simd.h"

namespace {

using namespace mira;

struct BenchConfig {
  std::vector<size_t> dims = {192, 768};
  // Rows per batched-scan call: one cache-resident size (what a blocked
  // consumer touches per block) and one streaming size (DRAM-bound regime).
  std::vector<size_t> batch_rows = {512, 4096};
  size_t adc_codes = 20000;    // codes per ADC scan call
  double min_seconds = 0.2;    // timing window per measurement
};

vecmath::Vec RandomVec(Rng* rng, size_t dim) {
  vecmath::Vec v(dim);
  for (float& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

vecmath::Matrix RandomMatrix(Rng* rng, size_t rows, size_t dim) {
  vecmath::Matrix m;
  m.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) m.AppendRow(RandomVec(rng, dim));
  return m;
}

/// Runs `body` repeatedly until `min_seconds` of wall time accumulate
/// (at least 3 iterations) and returns nanoseconds per call.
template <typename Fn>
double TimeNs(double min_seconds, const Fn& body) {
  body();  // warm caches and the dispatch table before timing
  size_t iters = 1;
  for (;;) {
    WallTimer timer;
    for (size_t i = 0; i < iters; ++i) body();
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed >= min_seconds && iters >= 3) {
      return elapsed * 1e9 / static_cast<double>(iters);
    }
    const double target = min_seconds * 1.2;
    size_t next = elapsed > 0.0
                      ? static_cast<size_t>(static_cast<double>(iters) *
                                            target / elapsed) +
                            1
                      : iters * 2;
    iters = next > iters ? next : iters * 2;
  }
}

struct Measurement {
  std::string op;
  size_t dim;
  size_t n;  // rows (batched ops) or 1 (pairwise ops)
  double scalar_ns;
  double active_ns;
  double bytes_per_call;
  double max_abs_err;  // active vs scalar on identical inputs
};

double Gbps(double bytes, double ns) { return ns > 0.0 ? bytes / ns : 0.0; }

void PrintRow(const Measurement& m, std::string_view tier) {
  std::printf("%-18s %5zu %6zu  %12.1f %12.1f  %7.2fx  %8.2f  %.2e\n",
              m.op.c_str(), m.dim, m.n, m.scalar_ns, m.active_ns,
              m.active_ns > 0.0 ? m.scalar_ns / m.active_ns : 0.0,
              Gbps(m.bytes_per_call, m.active_ns), m.max_abs_err);
  (void)tier;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  bool quick = false;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    }
  }
  const auto should_run = [&filter](std::string_view op) {
    return filter.empty() || filter == op;
  };
  if (quick) {
    cfg.dims = {192};
    cfg.batch_rows = {512};
    cfg.adc_codes = 2000;
    cfg.min_seconds = 0.02;
  }

  const vecmath::SimdTier tier = vecmath::ActiveSimdTier();
  const std::string_view tier_name = vecmath::SimdTierName(tier);
  const auto& active = vecmath::simd_internal::ActiveKernels();
  const auto& scalar = vecmath::simd_internal::ScalarKernels();

  std::printf("vecmath kernel microbenchmark (dispatch tier: %.*s%s)\n\n",
              static_cast<int>(tier_name.size()), tier_name.data(),
              quick ? ", --quick" : "");
  std::printf("%-18s %5s %6s  %12s %12s  %8s  %8s  %s\n", "op", "dim", "n",
              "scalar ns/op", "active ns/op", "speedup", "GB/s", "max|err|");

  Rng rng(20260807);
  std::vector<Measurement> results;
  bool parity_ok = true;

  for (size_t dim : cfg.dims) {
    const size_t max_rows = cfg.batch_rows.back();
    vecmath::Vec q = RandomVec(&rng, dim);
    vecmath::Vec b = RandomVec(&rng, dim);
    vecmath::Matrix rows = RandomMatrix(&rng, max_rows, dim);
    std::vector<float> out_active(max_rows, 0.0f);
    std::vector<float> out_scalar(max_rows, 0.0f);

    // Tolerance: SIMD reassociates the summation, so error grows ~sqrt(dim)
    // times the rounding unit of the accumulated magnitude.
    const float tol = 1e-3f * static_cast<float>(std::sqrt(
                                  static_cast<double>(dim)));

    // --- pairwise dot ---
    if (should_run("dot")) {
      Measurement m{"dot", dim, 1, 0, 0,
                    static_cast<double>(2 * dim * sizeof(float)), 0};
      volatile float sink = 0.0f;
      m.scalar_ns = TimeNs(cfg.min_seconds,
                           [&] { sink = scalar.dot(q.data(), b.data(), dim); });
      m.active_ns = TimeNs(cfg.min_seconds,
                           [&] { sink = active.dot(q.data(), b.data(), dim); });
      (void)sink;
      m.max_abs_err = std::fabs(active.dot(q.data(), b.data(), dim) -
                                scalar.dot(q.data(), b.data(), dim));
      parity_ok = parity_ok && m.max_abs_err <= tol;
      PrintRow(m, tier_name);
      results.push_back(m);
    }

    // --- pairwise cosine (fused single pass) ---
    if (should_run("cosine")) {
      Measurement m{"cosine", dim, 1, 0, 0,
                    static_cast<double>(2 * dim * sizeof(float)), 0};
      volatile float sink = 0.0f;
      m.scalar_ns = TimeNs(cfg.min_seconds, [&] {
        sink = scalar.cosine_similarity(q.data(), b.data(), dim);
      });
      m.active_ns = TimeNs(cfg.min_seconds, [&] {
        sink = active.cosine_similarity(q.data(), b.data(), dim);
      });
      (void)sink;
      m.max_abs_err =
          std::fabs(active.cosine_similarity(q.data(), b.data(), dim) -
                    scalar.cosine_similarity(q.data(), b.data(), dim));
      parity_ok = parity_ok && m.max_abs_err <= 1e-4f;
      PrintRow(m, tier_name);
      results.push_back(m);
    }

    // --- batched dot scan (the ExS cached / FlatIndex hot loop) ---
    if (should_run("dot_batch")) for (size_t n : cfg.batch_rows) {
      Measurement m{"dot_batch", dim, n, 0, 0,
                    static_cast<double>(n * dim * sizeof(float)), 0};
      m.scalar_ns = TimeNs(cfg.min_seconds, [&] {
        scalar.dot_batch(q.data(), rows.Row(0), n, dim, out_scalar.data());
      });
      m.active_ns = TimeNs(cfg.min_seconds, [&] {
        active.dot_batch(q.data(), rows.Row(0), n, dim, out_active.data());
      });
      for (size_t r = 0; r < n; ++r) {
        const float err = std::fabs(out_active[r] - out_scalar[r]);
        if (err > m.max_abs_err) m.max_abs_err = err;
      }
      parity_ok = parity_ok && m.max_abs_err <= tol;
      PrintRow(m, tier_name);
      results.push_back(m);
    }

    // --- batched squared-L2 scan (k-means / CTS medoid hot loop) ---
    if (should_run("squared_l2_batch")) for (size_t n : cfg.batch_rows) {
      Measurement m{"squared_l2_batch", dim, n, 0, 0,
                    static_cast<double>(n * dim * sizeof(float)), 0};
      m.scalar_ns = TimeNs(cfg.min_seconds, [&] {
        scalar.squared_l2_batch(q.data(), rows.Row(0), n, dim,
                                out_scalar.data());
      });
      m.active_ns = TimeNs(cfg.min_seconds, [&] {
        active.squared_l2_batch(q.data(), rows.Row(0), n, dim,
                                out_active.data());
      });
      for (size_t r = 0; r < n; ++r) {
        const float err = std::fabs(out_active[r] - out_scalar[r]);
        if (err > m.max_abs_err) m.max_abs_err = err;
      }
      parity_ok = parity_ok && m.max_abs_err <= tol;
      PrintRow(m, tier_name);
      results.push_back(m);
    }

    // --- PQ ADC scan: per-code AdcDistance loop vs AdcDistanceBatch ---
    if (should_run("adc_batch")) {
      index::PqOptions pq_options;
      pq_options.num_subquantizers = dim % 16 == 0 ? 16 : 8;
      pq_options.train_iterations = 4;
      pq_options.max_training_rows = 1024;
      vecmath::Matrix train =
          RandomMatrix(&rng, quick ? 320 : 1024, dim);
      auto pq = index::ProductQuantizer::Train(train, pq_options).MoveValue();

      const size_t num_codes = cfg.adc_codes;
      const size_t bytes = pq.code_bytes();
      std::vector<uint8_t> codes(num_codes * bytes);
      for (uint8_t& c : codes) {
        c = static_cast<uint8_t>(
            rng.NextBounded(index::ProductQuantizer::kCodebookSize));
      }
      std::vector<float> table;
      pq.ComputeDistanceTable(q, &table);
      std::vector<float> adc_scalar(num_codes, 0.0f);
      std::vector<float> adc_batch(num_codes, 0.0f);

      Measurement m{"adc_batch", dim, num_codes, 0, 0,
                    static_cast<double>(num_codes * bytes), 0};
      m.scalar_ns = TimeNs(cfg.min_seconds, [&] {
        for (size_t i = 0; i < num_codes; ++i) {
          adc_scalar[i] = pq.AdcDistance(table, codes.data() + i * bytes);
        }
      });
      m.active_ns = TimeNs(cfg.min_seconds, [&] {
        pq.AdcDistanceBatch(table, codes.data(), num_codes, adc_batch.data());
      });
      for (size_t i = 0; i < num_codes; ++i) {
        const float err = std::fabs(adc_batch[i] - adc_scalar[i]);
        if (err > m.max_abs_err) m.max_abs_err = err;
      }
      parity_ok = parity_ok && m.max_abs_err <= 1e-4f;
      PrintRow(m, tier_name);
      results.push_back(m);
    }

    std::printf("\n");
  }

  bench::BenchJsonWriter json("bench_kernels");
  json.SetMeta("simd_tier", std::string(tier_name));
  json.SetMeta("quick", quick ? 1.0 : 0.0);
  for (const Measurement& m : results) {
    json.AddRow();
    json.Set("op", m.op);
    json.Set("dim", static_cast<double>(m.dim));
    json.Set("n", static_cast<double>(m.n));
    json.Set("tier", std::string(tier_name));
    json.Set("scalar_ns_per_op", m.scalar_ns);
    json.Set("ns_per_op", m.active_ns);
    json.Set("gbps", Gbps(m.bytes_per_call, m.active_ns));
    json.Set("speedup_vs_scalar",
             m.active_ns > 0.0 ? m.scalar_ns / m.active_ns : 0.0);
    json.Set("max_abs_err", static_cast<double>(m.max_abs_err));
  }
  json.Write().Abort("bench json");

  if (!parity_ok) {
    std::fprintf(stderr,
                 "FAIL: active-tier kernels diverged from the scalar "
                 "reference beyond tolerance\n");
    return 1;
  }
  std::printf("parity: all active-tier results match the scalar reference\n");
  return 0;
}
