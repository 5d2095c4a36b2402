// SMOTE (Chawla et al. 2002): synthetic minority oversampling, used by the
// paper for the Random Forest model to counter theta_r-induced imbalance
// (Sec. V-B).
#pragma once

#include <cstdint>

#include "ml/dataset.hpp"

namespace polaris::ml {

/// Returns a new dataset containing all original samples plus synthetic
/// minority samples, interpolated between minority points and their
/// neighbors, until both classes have the majority's count. A dataset with
/// fewer than 2 minority samples (or a single class) is returned unchanged.
[[nodiscard]] Dataset smote_oversample(const Dataset& data, std::uint64_t seed);

}  // namespace polaris::ml
