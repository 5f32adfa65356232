#include "metrics/counters.hpp"

#include "obs/metrics_registry.hpp"

namespace sensrep::metrics {

std::string_view to_string(MessageCategory c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < obs::kNetCategories ? obs::kCategoryLabel[i] : "invalid";
}

}  // namespace sensrep::metrics
