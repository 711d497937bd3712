/**
 * @file
 * Umbrella header: the full public API of the Failure Sentinels
 * reproduction. Include this for everything, or the per-subsystem
 * headers for finer-grained dependencies.
 */

#ifndef FS_FS_FAILURE_SENTINELS_H_
#define FS_FS_FAILURE_SENTINELS_H_

// Utilities
#include "util/csv.h"
#include "util/logging.h"
#include "util/numeric.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

// Circuit substrate
#include "circuit/edge_counter.h"
#include "circuit/level_shifter.h"
#include "circuit/power_model.h"
#include "circuit/ring_oscillator.h"
#include "circuit/technology.h"
#include "circuit/transient_ro.h"
#include "circuit/voltage_divider.h"

// Analog baselines
#include "analog/adc_monitor.h"
#include "analog/comparator_monitor.h"
#include "analog/device_cards.h"
#include "analog/ideal_monitor.h"
#include "analog/voltage_monitor.h"

// Calibration
#include "calib/converter.h"
#include "calib/enrollment.h"
#include "calib/error_bounds.h"
#include "calib/full_table.h"
#include "calib/piecewise_constant.h"
#include "calib/piecewise_linear.h"
#include "calib/polynomial_fit.h"

// Core library
#include "core/failure_sentinels.h"
#include "core/fs_config.h"
#include "core/performance_model.h"

// Design-space exploration
#include "dse/fs_design_space.h"
#include "dse/nsga2.h"
#include "dse/pareto.h"
#include "dse/problem.h"

// RISC-V ISS
#include "riscv/assembler.h"
#include "riscv/encoding.h"
#include "riscv/hart.h"
#include "riscv/memory.h"

// SoC
#include "soc/area_model.h"
#include "soc/bus.h"
#include "soc/checkpoint_firmware.h"
#include "soc/conversion_firmware.h"
#include "soc/fs_peripheral.h"
#include "soc/guest_programs.h"
#include "soc/nvm.h"
#include "soc/soc.h"

// Runtime policies (Section II-C)
#include "runtime/checkpoint_policy.h"
#include "runtime/energy_model.h"
#include "runtime/phase_controller.h"
#include "runtime/task_admission.h"

// Harvesting environment
#include "harvest/capacitor.h"
#include "harvest/checkpoint_study.h"
#include "harvest/intermittent_sim.h"
#include "harvest/irradiance.h"
#include "harvest/loads.h"
#include "harvest/solar_panel.h"
#include "harvest/system_comparison.h"

#endif // FS_FS_FAILURE_SENTINELS_H_
