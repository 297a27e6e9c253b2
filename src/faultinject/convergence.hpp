// The convergence shortcut switch, shared by the VM and uarch campaigns.
#pragma once

#include <atomic>

namespace restore::faultinject {

namespace detail {
inline std::atomic<bool> convergence_shortcut_enabled{true};
}  // namespace detail

// Convergence shortcut, on by default: a trial whose faulty machine provably
// equals golden again stops simulating and derives the rest of its record
// from golden data. The uarch campaign detects this as a bit-identical golden
// checkpoint, the VM campaign as an empty dirty-register mask with golden
// memory and pc. Traces are byte-identical either way (test_trial_speed pins
// this), so the switch is not part of config_hash and has no CLI flag; tests
// and benchmarks turn it off for a full-simulation reference. Set it between
// campaigns: trials read it when they start.
inline bool convergence_shortcut() noexcept {
  return detail::convergence_shortcut_enabled.load();
}

inline void set_convergence_shortcut(bool enabled) noexcept {
  detail::convergence_shortcut_enabled.store(enabled);
}

}  // namespace restore::faultinject
