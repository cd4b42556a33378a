#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "data/partition.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::data {

namespace {

/// Class prototypes: rows of a [classes, d] matrix with i.i.d. N(0, sep²/d·d)
/// entries scaled so the expected pairwise prototype distance equals
/// `separation * sqrt(2)` in noise-sigma units.
std::vector<float> make_prototypes(util::Rng& rng, std::size_t classes,
                                   std::size_t dim, double separation) {
  std::vector<float> prototypes(classes * dim);
  const float scale =
      static_cast<float>(separation / std::sqrt(static_cast<double>(dim)));
  rng.fill_normal(prototypes, 0.0f, 1.0f);
  for (auto& v : prototypes) v *= scale;
  return prototypes;
}

/// Writes prototype[c] + optional style + N(0,1) noise into `out`.
void emit_sample(util::Rng& rng, std::span<const float> prototypes,
                 std::size_t dim, std::size_t cls, const float* style,
                 float* out) {
  const float* proto = prototypes.data() + cls * dim;
  for (std::size_t i = 0; i < dim; ++i) {
    float v = proto[i] + static_cast<float>(rng.normal());
    if (style != nullptr) v += style[i];
    out[i] = v;
  }
}

void apply_label_noise(util::Rng& rng, std::vector<std::int32_t>& labels,
                       std::size_t classes, double fraction) {
  if (fraction <= 0.0) return;
  for (auto& label : labels) {
    if (rng.bernoulli(fraction)) {
      label = static_cast<std::int32_t>(rng.uniform_int(classes));
    }
  }
}

Dataset make_iid_pool(util::Rng& rng, std::span<const float> prototypes,
                      std::size_t count, std::size_t dim, std::size_t classes,
                      double style_sigma) {
  Dataset pool;
  pool.features = tensor::Tensor({count, dim});
  pool.labels.resize(count);
  pool.num_classes = classes;
  std::vector<float> style(dim);
  for (std::size_t i = 0; i < count; ++i) {
    const auto cls = static_cast<std::size_t>(rng.uniform_int(classes));
    const float* style_ptr = nullptr;
    if (style_sigma > 0.0) {
      // Each evaluation sample comes from a fresh "writer", matching the
      // IID test distribution the paper evaluates against.
      rng.fill_normal(style, 0.0f, static_cast<float>(style_sigma));
      style_ptr = style.data();
    }
    emit_sample(rng, prototypes, dim, cls, style_ptr,
                pool.features.raw() + i * dim);
    pool.labels[i] = static_cast<std::int32_t>(cls);
  }
  return pool;
}

/// Runs body(rng, lo, hi) over [0, items) split into one contiguous
/// chunk per node-pool worker, where each item draws exactly
/// `normals_per_item` normals from `rng`. A serial pass records every
/// chunk's start state with discard_normals, so each chunk sees the very
/// stream the one-chunk loop would, and `rng` ends where that loop leaves
/// it: the bytes never depend on the chunking. The pass pays off only
/// when other threads run the chunks, so under ScopedForceSerial, on any
/// pool worker (whose other workers are mostly busy with trials) and on a
/// one-thread pool there is one chunk, run on `rng` itself with no pass.
template <typename Body>
void generate_in_chunks(util::Rng& rng, std::size_t items,
                        std::size_t normals_per_item, Body&& body) {
  const util::ThreadPool& pool = util::ThreadPool::current();
  const std::size_t chunks =
      util::ThreadPool::force_serial_active() || pool.on_worker_thread()
          ? 1
          : std::min(pool.size(), items);
  if (chunks <= 1) {
    body(rng, std::size_t{0}, items);
    return;
  }
  const auto bound = [&](std::size_t c) { return items * c / chunks; };
  std::vector<util::Rng::State> starts(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    starts[c] = rng.state();
    rng.discard_normals((bound(c + 1) - bound(c)) * normals_per_item);
  }
  util::parallel_for(0, chunks, [&](std::size_t c) {
    util::Rng chunk_rng;
    chunk_rng.set_state(starts[c]);
    body(chunk_rng, bound(c), bound(c + 1));
  });
}

}  // namespace

FederatedData make_cifar_synthetic(const CifarSynConfig& config) {
  util::Rng master(config.seed);
  util::Rng proto_rng = master.fork(1);
  util::Rng train_rng = master.fork(2);
  util::Rng partition_rng = master.fork(3);
  util::Rng eval_rng = master.fork(4);

  const std::vector<float> prototypes =
      make_prototypes(proto_rng, config.num_classes, config.feature_dim,
                      config.class_separation);

  FederatedData out;
  out.name = "cifar10-syn";

  // Training pool: balanced class counts (like CIFAR-10's 5000/class).
  const std::size_t n = config.nodes * config.samples_per_node;
  out.train.features = tensor::Tensor({n, config.feature_dim});
  out.train.labels.resize(n);
  out.train.num_classes = config.num_classes;
  // Each sample draws exactly feature_dim normals (emit_sample, no style).
  generate_in_chunks(
      train_rng, n, config.feature_dim,
      [&](util::Rng& rng, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t cls = i % config.num_classes;
          emit_sample(rng, prototypes, config.feature_dim, cls, nullptr,
                      out.train.features.raw() + i * config.feature_dim);
          out.train.labels[i] = static_cast<std::int32_t>(cls);
        }
      });
  apply_label_noise(train_rng, out.train.labels, config.num_classes,
                    config.label_noise);

  out.node_indices = shard_partition(out.train.labels, config.nodes,
                                     config.shards_per_node, partition_rng);

  // Validation/test: the paper extracts the validation set as 50% of the
  // test set; the two remain disjoint.
  Dataset pool = make_iid_pool(eval_rng, prototypes, config.test_pool,
                               config.feature_dim, config.num_classes,
                               /*style_sigma=*/0.0);
  auto [validation, test] = split_dataset(pool, 0.5, eval_rng);
  out.validation = std::move(validation);
  out.test = std::move(test);
  return out;
}

FederatedData make_femnist_synthetic(const FemnistSynConfig& config) {
  if (config.mean_samples_per_node == 0) {
    throw std::invalid_argument(
        "make_femnist_synthetic: mean_samples_per_node must be >= 1");
  }
  util::Rng master(config.seed);
  util::Rng proto_rng = master.fork(11);
  util::Rng writer_rng = master.fork(12);
  util::Rng eval_rng = master.fork(13);

  const std::vector<float> prototypes =
      make_prototypes(proto_rng, config.num_classes, config.feature_dim,
                      config.class_separation);

  FederatedData out;
  out.name = "femnist-syn";
  out.train.num_classes = config.num_classes;

  // Per-writer sample counts: FEMNIST's top-256 writers have skewed sizes;
  // we draw from a clamped lognormal around the configured mean. The
  // lower clamp is mean/2, but at least one sample: an empty shard has
  // nothing to train on.
  std::vector<std::size_t> counts(config.nodes);
  for (auto& count : counts) {
    const double factor = std::exp(writer_rng.normal(0.0, 0.35));
    const double mean = static_cast<double>(config.mean_samples_per_node);
    count = static_cast<std::size_t>(
        std::clamp(mean * factor, std::max(1.0, mean * 0.5), mean * 2.0));
  }
  // Writer w's samples start at offsets[w]: writers fill disjoint rows.
  std::vector<std::size_t> offsets(config.nodes + 1, 0);
  std::partial_sum(counts.begin(), counts.end(), offsets.begin() + 1);
  const std::size_t total = offsets.back();

  out.train.features = tensor::Tensor({total, config.feature_dim});
  out.train.labels.resize(total);
  out.node_indices.resize(config.nodes);

  // Writer `node` draws only from the const fork writer_rng.fork(node),
  // so writers build in parallel, bit for bit.
  const auto build_writers = [&](std::size_t lo, std::size_t hi) {
    std::vector<float> style(config.feature_dim);
    std::vector<double> cumulative(config.num_classes);
    for (std::size_t node = lo; node < hi; ++node) {
      util::Rng rng = writer_rng.fork(node);
      rng.fill_normal(style, 0.0f,
                      static_cast<float>(config.writer_style_sigma));

      // Near-homogeneous class mixture: every writer covers most classes
      // (this is what keeps FEMNIST "mild" non-IID in the paper's
      // Figure 7).
      const std::vector<double> mixture = dirichlet_weights(
          rng, config.class_mixture_alpha, config.num_classes);
      double acc = 0.0;
      for (std::size_t c = 0; c < mixture.size(); ++c) {
        acc += mixture[c];
        cumulative[c] = acc;
      }

      std::vector<std::size_t>& indices = out.node_indices[node];
      indices.resize(counts[node]);
      std::iota(indices.begin(), indices.end(), offsets[node]);
      for (const std::size_t row : indices) {
        const double u = rng.uniform();
        const std::size_t cls = static_cast<std::size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin());
        const std::size_t clamped = std::min(cls, config.num_classes - 1);
        emit_sample(rng, prototypes, config.feature_dim, clamped,
                    style.data(),
                    out.train.features.raw() + row * config.feature_dim);
        out.train.labels[row] = static_cast<std::int32_t>(clamped);
      }
    }
  };
  util::ThreadPool::current().parallel_for_chunks(0, config.nodes,
                                                 build_writers);
  apply_label_noise(writer_rng, out.train.labels, config.num_classes,
                    config.label_noise);

  Dataset pool = make_iid_pool(eval_rng, prototypes, config.test_pool,
                               config.feature_dim, config.num_classes,
                               config.writer_style_sigma);
  auto [validation, test] = split_dataset(pool, 0.5, eval_rng);
  out.validation = std::move(validation);
  out.test = std::move(test);
  return out;
}

}  // namespace skiptrain::data
