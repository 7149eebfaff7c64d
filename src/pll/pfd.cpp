#include "pll/pfd.hpp"

#include <algorithm>
#include <stdexcept>

namespace pllbist::pll {

void PfdDelays::validate() const {
  if (ff_clk_to_q_s <= 0.0 || and_delay_s <= 0.0 || ff_reset_to_q_s <= 0.0)
    throw std::invalid_argument("PfdDelays: all delays must be positive");
}

Pfd::Pfd(const PfdDelays& delays) : delays_(delays) { delays_.validate(); }

void Pfd::unclockFbAfter(double t) {
  pending_.erase(std::remove_if(pending_.begin() + static_cast<std::ptrdiff_t>(head_),
                                pending_.end(),
                                [t](const Pending& p) { return p.dn && p.clock > t; }),
                 pending_.end());
}

}  // namespace pllbist::pll
