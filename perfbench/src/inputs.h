/**
 * @file
 * Seeded inputs shared by the workloads and the layer probes, so a
 * probe measures exactly what its workload runs.
 */

#ifndef FSBENCH_INPUTS_H_
#define FSBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "analog/voltage_monitor.h"
#include "fault/torture_rig.h"
#include "harvest/intermittent_sim.h"
#include "soc/guest_programs.h"
#include "swarm/swarm.h"

namespace fsbench {

// --- grade -------------------------------------------------------------

/** The crc32-4k checkpointing firmware, its input data from the seed. */
fs::soc::GuestProgram gradeProgram(std::uint64_t seed);
/** The torture rig's power schedule. */
fs::fault::TortureConfig gradeConfig();
/** `n` kill points evenly spread over `span` cycles; tear bytes and
 *  flip masks from rngForIndex(seed, i). */
std::vector<fs::fault::PowerKill>
uniformKills(std::uint64_t span, std::size_t n, std::uint64_t seed);

// --- swarm -------------------------------------------------------------

/** One config per profile (night, office, diurnal, rf, CSV trace),
 *  each with the one-in-50 anomaly cohort. */
std::vector<fs::swarm::SwarmConfig> swarmFleetConfigs(std::uint64_t seed);

// --- paper -------------------------------------------------------------

/** The seeded irradiance traces of the scenario grid. */
struct PaperTraces {
    fs::harvest::IrradianceTrace table4{{0.0}, 1.0};
    fs::harvest::IrradianceTrace fig8{{0.0}, 1.0};
    std::vector<fs::harvest::IrradianceTrace> environments;
    fs::harvest::IrradianceTrace strategy{{0.0}, 1.0};
};
PaperTraces makePaperTraces(std::uint64_t seed);

/** Table IV monitor `which` (0 ideal, 1 FS LP, 2 FS HP, 3 comparator
 *  at its scenario threshold, 4 ADC). */
std::unique_ptr<fs::analog::VoltageMonitor>
makeMonitor(int which, const fs::harvest::IntermittentSim &sim);

} // namespace fsbench

#endif // FSBENCH_INPUTS_H_
