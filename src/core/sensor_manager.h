/**
 * @file
 * The phone-side SidewinderSensorManager (Sections 2.1.3 and 3.1 of
 * the paper): validates and compiles developer pipelines to the
 * intermediate language, pushes them to the hub over the serial link,
 * and dispatches wake-up callbacks back to the application.
 *
 * The manager also carries the phone half of the fault-tolerance
 * layer (docs/fault-model.md). With supervision enabled it keeps a
 * shadow copy of every pushed pipeline, watches the hub's heartbeat
 * beacons, declares the hub dead after a configurable run of missed
 * beats, and re-pushes all live conditions as soon as the hub comes
 * back (detected by a beacon with a new boot epoch). The down windows
 * it records let the simulator account for the Duty-Cycling fallback
 * an app would run while the hub is blind.
 */

#ifndef SIDEWINDER_CORE_SENSOR_MANAGER_H
#define SIDEWINDER_CORE_SENSOR_MANAGER_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/listener.h"
#include "core/pipeline.h"
#include "hub/placer.h"
#include "il/analyze.h"
#include "il/validate.h"
#include "transport/frame.h"
#include "transport/link.h"
#include "transport/reliable.h"

namespace sidewinder::core {

/** Lifecycle of one pushed wake-up condition. */
enum class ConditionState {
    /** Pushed; no ack from the hub yet. */
    Pending,
    /** Installed and running on the hub. */
    Active,
    /** Rejected by the hub (validation or capability failure). */
    Rejected,
    /** Removed at the application's request. */
    Removed,
};

/** Hub-supervision tuning knobs. */
struct SupervisionConfig
{
    /** Interval the hub was told to beacon at, seconds. */
    double heartbeatIntervalSeconds = 1.0;
    /** Consecutive missed beacons before the hub is declared dead. */
    double missedBeatsThreshold = 3.0;
};

/** Counters the supervisor accumulates over a run. */
struct SupervisionStats
{
    /** Times the hub was declared dead from beacon silence. */
    std::size_t hubDeathsDetected = 0;
    /** Boot-epoch changes observed (state-losing hub resets). */
    std::size_t rebootsDetected = 0;
    /** Conditions re-pushed across all recoveries. */
    std::size_t repushedConditions = 0;
};

/** Counters for live-reconfiguration (delta update) traffic. */
struct ReconfigStats
{
    /** Update transactions the hub acknowledged as committed. */
    std::size_t updatesCommitted = 0;
    /** Update transactions rolled back (hub refusal, heartbeat
        death mid-update, or local abort). */
    std::size_t updatesRolledBack = 0;
    /** Nodes shipped in full across all delta pushes. */
    std::size_t nodesShipped = 0;
    /** Nodes referenced by shareKey hash instead of travelling. */
    std::size_t nodesReused = 0;
    /** Framed bytes the delta pushes actually cost. */
    std::size_t deltaWireBytes = 0;
    /** Framed bytes full ConfigPushes of the same plans would cost. */
    std::size_t fullPushWireBytes = 0;
};

/** Phone-side manager for Sidewinder wake-up conditions. */
class SidewinderSensorManager
{
  public:
    /**
     * @param link Full-duplex connection to the hub; the manager
     *     writes the phone-to-hub direction and reads hub-to-phone.
     * @param channels Channels the hub serves, used for local
     *     validation before anything is transmitted.
     */
    SidewinderSensorManager(transport::LinkPair &link,
                            std::vector<il::ChannelInfo> channels);

    /**
     * Compile, statically analyze, and push @p pipeline; @p listener
     * is invoked on every wake-up of this condition.
     *
     * Analysis happens locally first so developer errors surface
     * immediately as exceptions rather than as asynchronous hub
     * rejections; non-fatal diagnostics are logged and kept for
     * inspection via pushDiagnostics().
     *
     * @return the condition id assigned to this push.
     * @throws ParseError / ConfigError on invalid pipelines.
     */
    int push(const ProcessingPipeline &pipeline,
             SensorEventListener *listener, double now = 0.0);

    /** Ask the hub to remove condition @p condition_id. */
    void remove(int condition_id, double now = 0.0);

    /**
     * Process hub responses and wake-ups that arrived by @p now,
     * dispatching listener callbacks. With supervision enabled, also
     * tracks heartbeats and triggers death detection / re-push.
     */
    void poll(double now);

    /**
     * Ship pushes and removes through a reliable-transport endpoint
     * (and unwrap reliable frames from the hub) instead of writing
     * the link directly. Must match the hub's configuration.
     */
    void enableReliableTransport(transport::ReliableConfig config = {});

    /**
     * Start supervising the hub: expect beacons every
     * config.heartbeatIntervalSeconds (the hub must have
     * enableHeartbeats() with the same interval), declare the hub
     * dead after missedBeatsThreshold silent intervals, and re-push
     * all live conditions when it recovers. @p now anchors the first
     * silence measurement.
     */
    void enableSupervision(SupervisionConfig config, double now = 0.0);

    /** True while the hub is presumed dead (supervision only). */
    bool hubDown() const { return hubIsDown; }

    /**
     * Total seconds the hub has been presumed dead so far, including
     * the currently open window up to @p now.
     */
    double hubDownSeconds(double now) const;

    /** Closed [start, end) windows the hub was presumed dead. */
    const std::vector<std::pair<double, double>> &
    downWindows() const
    {
        return closedDownWindows;
    }

    /** Start of the still-open down window, if the hub is down now. */
    std::optional<double>
    openDownWindowStart() const
    {
        if (!hubIsDown)
            return std::nullopt;
        return downSince;
    }

    /** Bytes the frame decoder discarded while resynchronizing. */
    std::size_t
    linkDropBytes() const
    {
        return decoder.droppedBytes();
    }

    const SupervisionStats &
    supervisionStats() const
    {
        return supStats;
    }

    /** Reliable-endpoint counters; nullptr until enabled. */
    const transport::ReliableStats *
    reliableStats() const
    {
        return reliable ? &reliable->stats() : nullptr;
    }

    // ----- live reconfiguration (the phone half) -----
    //
    // Changing a running condition (retune a threshold, swap a
    // filter) should not cost a full teardown-and-repush: the phone
    // opens a versioned update transaction, ships only the nodes
    // whose canonical shareKey is not already live on the hub (the
    // rest travel as 8-byte hash references), and commits — the hub
    // stages the new plans beside the live ones and swaps them
    // atomically between two evaluation waves, carrying shared-node
    // state across. Anything that fails — hub-side rejection, a
    // heartbeat blackout mid-transfer, an explicit abort — rolls the
    // transaction back on both sides; the shadow copies here are
    // untouched until the hub's Committed ack arrives.

    /**
     * Open an update transaction at a fresh config epoch and tell
     * the hub. One transaction at a time.
     * @return the transaction's config epoch.
     * @throws ConfigError if one is already open or the hub is down.
     */
    std::uint32_t beginUpdate(double now = 0.0);

    /**
     * Stage a replacement @p pipeline for @p condition_id inside the
     * open transaction: compile, analyze and lower locally, delta
     * against every shareKey presumed live on the hub (installed
     * conditions plus earlier stages of this transaction), and ship
     * the delta. The local shadow copy is not touched until commit.
     * @throws ConfigError / ParseError on invalid pipelines or ids.
     */
    void updateCondition(int condition_id,
                         const ProcessingPipeline &pipeline,
                         double now = 0.0);

    /** Ask the hub to atomically swap everything staged live. */
    void commitUpdate(double now = 0.0);

    /** Abandon the open transaction (tells the hub to roll back). */
    void abortUpdate(double now = 0.0);

    /** True while an update transaction is open. */
    bool updateInProgress() const { return pendingUpdate.has_value(); }

    /** Config epoch of the last committed update (0 = none yet). */
    std::uint32_t configEpoch() const { return committedEpoch; }

    /** Why the last update rolled back (empty after a commit). */
    const std::string &lastUpdateError() const { return updateError; }

    const ReconfigStats &reconfigStats() const { return reconStats; }

    /** Lifecycle state of @p condition_id. */
    ConditionState state(int condition_id) const;

    /** Rejection reason (empty unless state is Rejected). */
    std::string rejectionReason(int condition_id) const;

    /** IL text shipped for @p condition_id (for inspection). */
    std::string ilTextOf(int condition_id) const;

    /**
     * Non-fatal analyzer diagnostics (warnings and notes) recorded
     * when @p condition_id was pushed.
     */
    const std::vector<il::Diagnostic> &
    pushDiagnostics(int condition_id) const;

    /**
     * Where the platform placer homed @p condition_id when it was
     * pushed (executor, marginal power, wire target) — the decision
     * behind the SW203 note in pushDiagnostics().
     */
    const hub::PlacementDecision &placementOf(int condition_id) const;

  private:
    struct Entry
    {
        ConditionState state = ConditionState::Pending;
        SensorEventListener *listener = nullptr;
        std::string ilText;
        std::string reason;
        std::vector<il::Diagnostic> pushDiagnostics;
        /** Canonical shareKeys of the shipped plan's nodes — the
            shadow of what is live on the hub, and the basis every
            delta is computed against. */
        std::vector<std::string> shareKeys;
        /** Negotiated home across hub::platformExecutors(). */
        hub::PlacementDecision placement;
    };

    /** A condition's replacement, held until the hub commits. */
    struct StagedEntry
    {
        std::string ilText;
        std::vector<std::string> shareKeys;
    };

    /** The open update transaction, if any. */
    struct PendingUpdate
    {
        std::uint32_t epoch = 0;
        bool commitSent = false;
        std::map<int, StagedEntry> staged;
    };

    const Entry &entryOf(int condition_id) const;
    /**
     * True when poll(@p now) would change any state: a byte from the
     * hub is due, the decoder or the reliable endpoint has work, or
     * the supervisor has missed enough heartbeats. On all other waves
     * poll() returns at once.
     */
    bool pollDue(double now) const;
    /** Supervising a live hub that has been silent too long. */
    bool heartbeatsMissed(double now) const;
    void handleFrame(const transport::Frame &frame, double now);
    void sendToHub(const transport::Frame &frame, double now);
    void recoverHub(double now);
    /** Drop the open transaction and count the rollback. */
    void discardUpdate(const std::string &reason);

    transport::LinkPair &link;
    std::vector<il::ChannelInfo> channels;
    transport::FrameDecoder decoder;
    std::map<int, Entry> entries;
    int nextConditionId = 1;

    std::optional<transport::ReliableEndpoint> reliable;
    bool supervising = false;
    SupervisionConfig supConfig;
    SupervisionStats supStats;
    double lastBeatTime = 0.0;
    bool haveBootId = false;
    std::uint32_t lastBootId = 0;
    bool hubIsDown = false;
    double downSince = 0.0;
    std::vector<std::pair<double, double>> closedDownWindows;

    std::optional<PendingUpdate> pendingUpdate;
    /** Next epoch to hand out; monotonic for this manager's life. */
    std::uint32_t nextEpoch = 1;
    std::uint32_t committedEpoch = 0;
    std::string updateError;
    ReconfigStats reconStats;
};

} // namespace sidewinder::core

#endif // SIDEWINDER_CORE_SENSOR_MANAGER_H
