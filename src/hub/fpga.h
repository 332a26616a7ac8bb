/**
 * @file
 * FPGA-based sensor-hub backend model.
 *
 * Section 7 of the paper: "Our immediate future work includes
 * developing an FPGA-based prototype"; Section 2.1.1 already allows
 * it: "The runtime could ... reconfigure FPGAs according to the
 * requirements of the wake-up condition ... the algorithms will most
 * likely be pre-compiled and the runtime would need to reconfigure
 * according to the specific configuration."
 *
 * The model captures what matters for the sizing decision of
 * Section 3.8: each standardized algorithm has a pre-compiled block
 * with a logic-cell footprint; a wake-up condition *fits* when the sum
 * of its nodes' footprints is within the fabric budget; installing a
 * new condition costs a reconfiguration delay during which the hub is
 * blind. Power is static (always-on fabric) plus per-block dynamic
 * power scaled by each node's firing rate — FPGAs trade a higher
 * static floor for far better energy per operation on streaming DSP.
 */

#ifndef SIDEWINDER_HUB_FPGA_H
#define SIDEWINDER_HUB_FPGA_H

#include <map>
#include <string>
#include <vector>

#include "il/ast.h"
#include "il/plan.h"

namespace sidewinder::hub {

/** Static description of an FPGA hub fabric. */
struct FpgaModel
{
    /** Part name. */
    std::string name;
    /** Always-on fabric power, mW. */
    double staticPowerMw = 0.0;
    /** Logic-cell budget available to algorithm blocks. */
    std::size_t logicCells = 0;
    /** Full-fabric reconfiguration time, seconds. */
    double reconfigSeconds = 0.0;
    /**
     * Dynamic energy per abstract cycle unit, in nanojoules —
     * substantially below a microcontroller's because each block is a
     * dedicated datapath rather than fetch/decode/execute.
     */
    double nanojoulesPerCycleUnit = 0.0;
};

/** A small flash-based FPGA in the iCE40 class. */
FpgaModel ice40Hub();

/** Per-node placement record of a planned configuration. */
struct FpgaPlacementEntry
{
    il::NodeId node = 0;
    std::string algorithm;
    std::size_t cells = 0;
};

/** Result of planning a wake-up condition onto a fabric. */
struct FpgaPlacement
{
    /** Per-node block assignments. */
    std::vector<FpgaPlacementEntry> entries;
    /** Total logic cells consumed. */
    std::size_t cellsUsed = 0;
    /** True when the condition fits the fabric budget. */
    bool fits = false;
    /** Average dynamic power of the running configuration, mW. */
    double dynamicPowerMw = 0.0;

    /** Static plus dynamic power, mW. */
    double
    totalPowerMw(const FpgaModel &fpga) const
    {
        return fpga.staticPowerMw + dynamicPowerMw;
    }
};

/** Logic-cell footprint of one standardized algorithm instance. */
std::size_t fpgaCellCost(const std::string &algorithm,
                         std::size_t frame_size);

/**
 * Plan a sealed execution plan onto @p fpga: assign each node a
 * pre-compiled block, sum footprints, and estimate dynamic power from
 * the per-node firing rates. The plan is the sole representation —
 * lowering already hash-consed structurally identical nodes, so each
 * datapath is placed once.
 */
FpgaPlacement planFpgaPlacement(const il::ExecutionPlan &plan,
                                const FpgaModel &fpga);

} // namespace sidewinder::hub

#endif // SIDEWINDER_HUB_FPGA_H
