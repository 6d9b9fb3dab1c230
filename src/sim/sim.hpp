// Umbrella header for the simulation API: Scenario + ProtocolRegistry +
// Driver + report emitters.  This is the library's public surface for
// "run protocol X on scenario Y for T trials".
#pragma once

#include "sim/driver.hpp"          // IWYU pragma: export
#include "sim/protocol.hpp"        // IWYU pragma: export
#include "sim/registry.hpp"        // IWYU pragma: export
#include "sim/report.hpp"          // IWYU pragma: export
#include "sim/scenario.hpp"        // IWYU pragma: export
#include "sim/scenario_setup.hpp"  // IWYU pragma: export
#include "sim/sweep.hpp"           // IWYU pragma: export
#include "sim/sweep_runner.hpp"    // IWYU pragma: export
