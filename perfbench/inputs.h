// Paper-shaped round inputs, generated procedurally from the workload seed.
// The data model and its fixed parameters are described in inputs.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace.h"

namespace perfbench {

/// What varies between workloads; the rest of the data model is fixed in
/// inputs.cpp.
struct InputSpec {
  std::size_t users = 0;
  std::size_t objects = 0;
  std::size_t num_labels = 0;  ///< 0 = continuous readings

  bool categorical() const { return num_labels >= 2; }
};

struct Inputs {
  InputSpec spec;
  std::vector<double> truths;  ///< per object
  /// Claims of user s at [s * c, (s + 1) * c), c = 6 claims per user.
  std::vector<std::uint32_t> objects;
  std::vector<double> values;         ///< continuous claims
  std::vector<std::uint32_t> labels;  ///< label claims
  /// Report submission order: user ids, a duplicate right after the original.
  std::vector<std::uint32_t> submission;
  std::size_t duplicates = 0;
  std::size_t malformed = 0;
  /// In-range, finite claims of first submissions: the claims a round keeps.
  std::size_t valid_claims = 0;
};

/// Generates and perturbs the inputs. Perturbation calls are traced as
/// core.perturb_value / categorical.krr_perturb aggregate spans.
Inputs generate_inputs(const InputSpec& spec, std::uint64_t seed,
                       Tracer& tracer);

/// The encoded reports of one round, one per user, in one flat buffer.
struct Corpus {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;  ///< users + 1 entries

  std::span<const std::uint8_t> payload(std::size_t user) const {
    return {bytes.data() + offsets[user], offsets[user + 1] - offsets[user]};
  }
};

/// Encodes every user's Report / LabelReport for `round` (traced as
/// crowd.encode aggregate spans). Reuses `corpus`' storage.
void encode_round(const Inputs& inputs, std::uint64_t round, Tracer& tracer,
                  Corpus& corpus);

/// FNV-1a over the encoded bytes: a fingerprint of the generated inputs.
std::uint64_t digest(const Corpus& corpus);

}  // namespace perfbench
