#include "xai/waterfall.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/strings.hpp"
#include "xai/treeshap.hpp"

namespace polaris::xai {

Waterfall make_waterfall(const ml::Model& model, std::span<const double> x,
                         std::span<const std::string> feature_names,
                         std::size_t max_bars) {
  Waterfall wf;
  wf.expected_value = expected_value(model.ensemble());
  wf.fx = model.predict_margin(x);

  const auto phi = tree_shap(model.ensemble(), x);
  std::vector<std::size_t> order(phi.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::fabs(phi[a]) > std::fabs(phi[b]);
  });

  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t f = order[rank];
    if (rank < max_bars) {
      WaterfallBar bar;
      bar.feature = f < feature_names.size() ? feature_names[f]
                                             : util::numbered("f", f);
      bar.feature_value = x[f];
      bar.phi = phi[f];
      wf.bars.push_back(std::move(bar));
    } else {
      wf.rest += phi[f];
    }
  }
  return wf;
}

std::string Waterfall::render() const {
  std::ostringstream out;
  out << "f(x) = " << util::format_double(fx, 3)
      << "   E[f(x)] = " << util::format_double(expected_value, 3) << "\n";
  double running = fx;
  const auto emit = [&out, &running](const std::string& label, double phi) {
    const int magnitude =
        std::min(30, static_cast<int>(std::lround(std::fabs(phi) * 12.0)));
    const std::string bar(static_cast<std::size_t>(std::max(1, magnitude)),
                          phi >= 0.0 ? '+' : '-');
    out << "  " << label;
    if (label.size() < 24) out << std::string(24 - label.size(), ' ');
    out << (phi >= 0.0 ? " +" : " ") << util::format_double(phi, 3) << "  "
        << bar << "\n";
    running -= phi;
  };
  for (const auto& b : bars) {
    emit(b.feature + " = " + util::format_double(b.feature_value, 2), b.phi);
  }
  if (rest != 0.0) emit("(remaining features)", rest);
  out << "  -> base " << util::format_double(running, 3) << " (= E[f(x)])\n";
  return out.str();
}

}  // namespace polaris::xai
