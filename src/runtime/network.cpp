#include "runtime/network.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace localspan::runtime::detail {

void check_vertex(int n, int v, const char* who) {
  if (v < 0 || v >= n) {
    throw std::invalid_argument(std::string(who) + ": vertex id " + std::to_string(v) +
                                " out of range [0, " + std::to_string(n) + ")");
  }
}

void check_packet(const Packet& p, const char* who) {
  if (!std::isfinite(p.value)) {
    throw std::domain_error(std::string(who) + ": Packet::value must be finite");
  }
}

}  // namespace localspan::runtime::detail
