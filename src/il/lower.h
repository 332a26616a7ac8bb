/**
 * @file
 * Lowering: compile a legal IL program to an ExecutionPlan.
 *
 * Lowering is the output of the one legality walk (il/analyze.cc): a
 * plan builder in the walk's per-node hook turns names into indices,
 * computes static costs and merges duplicates as the walk registers
 * each node, so lower() walks the program once. il::analyze() runs
 * the same walk and hands the same plan back. Everything downstream —
 * the engine, admission control, MCU selection, FPGA placement,
 * tooling — consumes the plan; nothing re-walks the AST.
 */

#ifndef SIDEWINDER_IL_LOWER_H
#define SIDEWINDER_IL_LOWER_H

#include <vector>

#include "il/ast.h"
#include "il/plan.h"
#include "il/validate.h"

namespace sidewinder::il {

/** Knobs for lower(). */
struct LowerOptions
{
    /**
     * Merge structurally identical nodes (same canonical key) into
     * one plan node — the form a sharing hub instantiates and the
     * sensor manager ships, and the IL's only merge pass. false
     * preserves every statement as its own node, matching an engine
     * built with node sharing disabled (the sharing-ablation
     * baseline duplicates nodes even within one condition).
     */
    bool dedupe = true;
};

/**
 * Lower @p program against @p channels, in the legality walk, to a
 * flat, topologically scheduled, sealed ExecutionPlan with resolved
 * indices, canonical sharing keys, and precomputed per-node costs.
 *
 * @throws ParseError carrying the walk's first Error diagnostic
 *     (validate()'s verdict; lowering adds no rules of its own).
 */
ExecutionPlan lower(const Program &program,
                    const std::vector<ChannelInfo> &channels,
                    const LowerOptions &options = {});

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_LOWER_H
