/**
 * @file
 * The hub-side message loop: receives configuration frames from the
 * phone over the serial link, manages the dataflow engine, and sends
 * wake-up frames back.
 *
 * Together with core::SidewinderSensorManager on the phone side, this
 * realizes the full architecture of Figure 1 of the paper: the only
 * coupling between the two halves is the intermediate language
 * travelling over the framed UART.
 *
 * Beyond the paper's fault-free prototype, the runtime carries the
 * hub half of the fault-tolerance layer (docs/fault-model.md): an
 * optional heartbeat beacon stamped with a boot epoch, an optional
 * reliable-transport endpoint for everything it sends, and a
 * brownout-reset path (reboot()) that deliberately drops all engine
 * state so supervisors can be tested against real state loss.
 */

#ifndef SIDEWINDER_HUB_RUNTIME_H
#define SIDEWINDER_HUB_RUNTIME_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "hub/engine.h"
#include "hub/mcu.h"
#include "transport/frame.h"
#include "transport/link.h"
#include "transport/reliable.h"

namespace sidewinder::hub {

/** The sensor hub: engine + MCU model + link endpoints. */
class HubRuntime
{
  public:
    /**
     * @param link Full-duplex connection to the phone; the runtime
     *     reads the phone-to-hub direction and writes hub-to-phone.
     * @param channels Sensor channels wired to this hub.
     * @param mcu Microcontroller the hub is built around; pushes whose
     *     compute demand exceeds it are rejected.
     * @param share_nodes Enable cross-condition node sharing.
     */
    HubRuntime(transport::LinkPair &link,
               std::vector<il::ChannelInfo> channels, McuModel mcu,
               bool share_nodes = true);

    /**
     * Process bytes that have arrived from the phone by time @p now:
     * install / remove conditions and send acks or rejections. Also
     * drives heartbeat emission and reliable-transport timers when
     * those are enabled.
     */
    void pollLink(double now);

    /**
     * Feed one synchronous sample per channel and forward any
     * resulting wake-ups to the phone as WakeUp frames.
     */
    void pushSamples(const std::vector<double> &values, double timestamp);

    /**
     * Start emitting Heartbeat beacons every @p interval_seconds.
     * Beacons bypass the reliable queue so their latency stays bounded
     * even when the line is backlogged with retransmissions.
     */
    void enableHeartbeats(double interval_seconds);

    /**
     * Ship acks, rejects and wake-ups through a reliable-transport
     * endpoint (and unwrap reliable frames from the phone) instead of
     * writing the link directly.
     */
    void enableReliableTransport(transport::ReliableConfig config = {});

    /**
     * Suppress wake-up frames for a condition within
     * @p min_interval_seconds of the last one sent for it. A condition
     * that keeps firing at sample rate emits a burst of large raw-data
     * frames; on a noisy link the retransmissions of those redundant
     * frames overflow the bounded reliable queue and crowd out the
     * wake-ups that matter. One frame per condition per interval keeps
     * the stop-and-wait channel ahead of the producer while the phone
     * still sees every distinct event. 0 disables (the default).
     */
    void setWakeCoalescing(double min_interval_seconds);

    /** Wake-ups suppressed by coalescing so far. */
    std::size_t wakesCoalesced() const { return coalescedWakes; }

    /**
     * Simulated brownout reset: every installed condition, all node
     * state, the decoder and the reliable endpoint are lost, and the
     * boot epoch increments so the next heartbeat tells the phone the
     * hub is an amnesiac. The caller models the powered-off window
     * itself (by not polling during it); reboot() is the instant power
     * returns.
     */
    void reboot(double now);

    /** Boot epoch: 0 at construction, +1 per reboot(). */
    std::uint32_t bootId() const { return bootEpoch; }

    // ----- live reconfiguration (the hub half) -----
    //
    // The phone opens a transaction with UpdateBegin at a fresh
    // config epoch, streams DeltaPush frames the hub stages in the
    // engine's shadow slot (the live plans keep executing — no
    // samples are dropped during transfer), and closes with
    // UpdateCommit, which the hub answers by atomically swapping the
    // staged plans live and bumping its committed epoch. Anything
    // that goes wrong — analyzer rejection, admission overflow, a
    // stale hash reference, frames that stop arriving mid-update —
    // rolls the shadow slot back, leaves the epoch un-bumped, and
    // tells the phone with an UpdateAck{RolledBack} so it can retry.

    /** Committed config epoch: 0 at boot, set by each UpdateCommit. */
    std::uint32_t configEpoch() const { return committedEpoch; }

    /** True while an update transaction is open (staging). */
    bool updateInProgress() const { return txn.has_value(); }

    /** Update transactions committed since construction. */
    std::size_t updatesCommitted() const { return updatesCommittedCount; }

    /** Update transactions rolled back (incl. those lost to reboot). */
    std::size_t updatesRolledBack() const
    {
        return updatesRolledBackCount;
    }

    /**
     * Update-protocol messages refused for carrying a superseded
     * epoch. Transport-level refusals (delayed reliable retransmits)
     * are counted separately in reliableStats()->staleEpochFrames.
     */
    std::size_t staleEpochMessages() const
    {
        return staleEpochMessagesCount;
    }

    /**
     * Gap between the last evaluation wave before the most recent
     * committed swap and the first wave after it, in seconds. Under a
     * zero-sample-loss swap this equals one sample period — the
     * measured "blind window" of the A/B commit. 0 until a swap has
     * been bracketed by waves.
     */
    double lastBlindWindowSeconds() const { return blindWindow; }

    /** The dataflow engine (exposed for tests and benchmarks). */
    Engine &engine() { return dataflow; }
    const Engine &engine() const { return dataflow; }

    /** The hub's microcontroller model. */
    const McuModel &mcu() const { return mcuModel; }

    /** Bytes discarded by frame decoding (noise), across reboots. */
    std::size_t
    linkDropBytes() const
    {
        return decoderDropsBeforeReboot + decoder.droppedBytes();
    }

    /** Reliable-endpoint counters; nullptr until enabled. */
    const transport::ReliableStats *
    reliableStats() const
    {
        return reliable ? &reliable->stats() : nullptr;
    }

  private:
    /**
     * An open transaction rolls back when no update frame has arrived
     * for this long: the phone died or the link lost the tail of the
     * update beyond what ARQ recovers. Pairs with the phone's
     * heartbeat-driven abort — either side can conclude the update is
     * dead and the hub must not hold staged state forever.
     */
    static constexpr double updateStallTimeoutSeconds = 5.0;

    /**
     * True when pollLink(@p now) would change any state: a byte from
     * the phone is due, the decoder or the reliable endpoint has work,
     * or the update-stall or heartbeat timer has expired. On all other
     * waves pollLink() returns at once.
     */
    bool linkDue(double now) const;
    /** An open transaction has heard nothing for
        updateStallTimeoutSeconds. */
    bool updateStalled(double now) const;
    /** The next heartbeat beacon is due. */
    bool heartbeatDue(double now) const;
    void handleFrame(const transport::Frame &frame, double now);
    void sendToPhone(const transport::Frame &frame, double now);
    /**
     * The admission gauntlet for a program from the phone, shared by
     * full pushes and delta updates: static analysis (listing every
     * error), lowering with the engine's options, the value-range
     * gate for the engine's numeric mode, and the MCU's cycle and RAM
     * budgets charged with the engine's load plus the plan's marginal
     * cost. Rejection reasons name @p what ("condition" or "update")
     * and append @p window to the budget they exceed.
     * @returns the plan to install or stage.
     * @throws SidewinderError with the rejection reason.
     */
    il::ExecutionPlan admit(const il::Program &program,
                            const std::string &what,
                            const std::string &window) const;
    /** Abort the shadow slot and notify the phone. */
    void rollbackUpdate(double now, const std::string &reason);
    /** Drain engine wake-ups into WakeUp frames (with coalescing). */
    void forwardWakeEvents();

    transport::LinkPair &link;
    Engine dataflow;
    McuModel mcuModel;
    transport::FrameDecoder decoder;

    std::optional<transport::ReliableEndpoint> reliable;
    transport::ReliableConfig reliableConfig;
    double wakeCoalesceInterval = 0.0;
    std::map<int, double> lastWakeSent;
    std::size_t coalescedWakes = 0;
    double heartbeatInterval = 0.0;
    double lastHeartbeat = 0.0;
    bool heartbeatSent = false;
    std::uint32_t bootEpoch = 0;
    double bootTime = 0.0;
    std::size_t decoderDropsBeforeReboot = 0;

    /** One open update transaction (at most one at a time). */
    struct UpdateTxn
    {
        std::uint32_t epoch = 0;
        /** Receipt time of the transaction's latest frame. */
        double lastFrameAt = 0.0;
        /** Latched by the first staging failure; commit rolls back. */
        bool failed = false;
        std::string failReason;
    };
    std::optional<UpdateTxn> txn;
    std::uint32_t committedEpoch = 0;
    std::size_t updatesCommittedCount = 0;
    std::size_t updatesRolledBackCount = 0;
    std::size_t staleEpochMessagesCount = 0;
    /** Blind-window bookkeeping: last wave seen, pending swap mark. */
    double lastWaveTime = -1.0;
    bool swapPending = false;
    double swapLastWave = 0.0;
    double blindWindow = 0.0;
};

} // namespace sidewinder::hub

#endif // SIDEWINDER_HUB_RUNTIME_H
