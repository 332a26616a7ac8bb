/**
 * @file
 * Values flowing between algorithm instances on the sensor hub.
 */

#ifndef SIDEWINDER_HUB_VALUE_H
#define SIDEWINDER_HUB_VALUE_H

#include <variant>
#include <vector>

#include "dsp/fft.h"
#include "il/algorithm_info.h"
#include "support/error.h"

namespace sidewinder::hub {

/**
 * A dataflow value: a scalar, a frame of real samples, or a frame of
 * complex FFT bins. Mirrors il::ValueKind.
 */
class Value
{
  public:
    Value() : storage(0.0) {}
    Value(double scalar) : storage(scalar) {}
    Value(std::vector<double> frame) : storage(std::move(frame)) {}
    Value(std::vector<dsp::Complex> bins) : storage(std::move(bins)) {}

    /** Kind tag of the held alternative. */
    il::ValueKind
    kind() const
    {
        if (std::holds_alternative<double>(storage))
            return il::ValueKind::Scalar;
        if (std::holds_alternative<std::vector<double>>(storage))
            return il::ValueKind::Frame;
        return il::ValueKind::ComplexFrame;
    }

    /** Scalar accessor; throws InternalError on kind mismatch. */
    double
    scalar() const
    {
        if (const double *v = std::get_if<double>(&storage))
            return *v;
        throw InternalError("Value is not a scalar");
    }

    /** Frame accessor; throws InternalError on kind mismatch. */
    const std::vector<double> &
    frame() const
    {
        if (const auto *v = std::get_if<std::vector<double>>(&storage))
            return *v;
        throw InternalError("Value is not a frame");
    }

    /** Complex-frame accessor; throws InternalError on mismatch. */
    const std::vector<dsp::Complex> &
    complexFrame() const
    {
        if (const auto *v =
                std::get_if<std::vector<dsp::Complex>>(&storage))
            return *v;
        throw InternalError("Value is not a complex frame");
    }

    /**
     * Mutable scalar storage: makes this value a Scalar (keeping the
     * held double when it already is one) and returns it for writing.
     */
    double &
    scalarStorage()
    {
        if (auto *v = std::get_if<double>(&storage))
            return *v;
        storage = 0.0;
        return std::get<double>(storage);
    }

    /**
     * Mutable frame storage for output-parameter kernel invocation:
     * makes this value a Frame (preserving the existing vector, and
     * thus its capacity, when it already is one) and returns the
     * vector for in-place writing. Steady-state nodes keep emitting
     * the same kind, so the buffer is reused wave after wave.
     */
    std::vector<double> &
    frameStorage()
    {
        if (auto *v = std::get_if<std::vector<double>>(&storage))
            return *v;
        storage = std::vector<double>();
        return std::get<std::vector<double>>(storage);
    }

    /** Mutable complex-frame storage; see frameStorage(). */
    std::vector<dsp::Complex> &
    complexFrameStorage()
    {
        if (auto *v = std::get_if<std::vector<dsp::Complex>>(&storage))
            return *v;
        storage = std::vector<dsp::Complex>();
        return std::get<std::vector<dsp::Complex>>(storage);
    }

    /**
     * Number of cost units this value represents when consumed: 1 for
     * scalars, the element count for frames.
     */
    std::size_t
    units() const
    {
        switch (kind()) {
          case il::ValueKind::Scalar:
            return 1;
          case il::ValueKind::Frame:
            return frame().size();
          case il::ValueKind::ComplexFrame:
            return complexFrame().size();
        }
        return 1;
    }

  private:
    std::variant<double, std::vector<double>, std::vector<dsp::Complex>>
        storage;
};

} // namespace sidewinder::hub

#endif // SIDEWINDER_HUB_VALUE_H
