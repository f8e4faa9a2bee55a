#include "patlabor/engine/registry.hpp"

#include <stdexcept>
#include <string>

#include "patlabor/baselines/pd.hpp"
#include "patlabor/baselines/salt.hpp"
#include "patlabor/baselines/ysd.hpp"

namespace patlabor::engine {

Method parse_method(std::string_view name) {
  std::string valid;
  for (std::size_t i = 0; i < kMethods.size(); ++i) {
    if (name == kMethods[i].name) return static_cast<Method>(i);
    valid += i == 0 ? "" : " ";
    valid += kMethods[i].name;
  }
  throw std::invalid_argument("unknown method '" + std::string(name) +
                              "' (valid: " + valid + ")");
}

std::vector<double> default_params(Method m) {
  switch (m) {
    case Method::kPd:
    case Method::kPdii: return baselines::default_alphas();
    case Method::kSalt: return baselines::default_epsilons();
    case Method::kYsd: return baselines::default_betas();
    case Method::kPatLabor:
    case Method::kRsmt:
    case Method::kRsma: return {};
  }
  return {};
}

}  // namespace patlabor::engine
