/**
 * @file
 * The one lowering helper the tests share: hub::Engine installs only
 * sealed plans, so a test holding IL lowers it the way the engine it
 * targets instantiates conditions.
 */

#ifndef SIDEWINDER_TESTS_ENGINE_PLAN_H
#define SIDEWINDER_TESTS_ENGINE_PLAN_H

#include "hub/engine.h"
#include "il/lower.h"

namespace sidewinder::test {

/** @p program lowered against @p engine's channels and options. */
inline il::ExecutionPlan
planFor(const hub::Engine &engine, const il::Program &program)
{
    return il::lower(program, engine.channels(), engine.lowerOptions());
}

} // namespace sidewinder::test

#endif // SIDEWINDER_TESTS_ENGINE_PLAN_H
