/**
 * @file
 * Typed messages carried over the framed serial link, with their
 * payload (de)serialization.
 */

#ifndef SIDEWINDER_TRANSPORT_MESSAGES_H
#define SIDEWINDER_TRANSPORT_MESSAGES_H

#include <cstdint>
#include <string>
#include <vector>

#include "transport/frame.h"

namespace sidewinder::transport {

/** Phone -> hub: install a wake-up condition. */
struct ConfigPushMessage
{
    /** Phone-assigned identifier of the condition. */
    std::int32_t conditionId = 0;
    /** Intermediate-language text of the condition. */
    std::string ilText;
};

/** Hub -> phone: result of a ConfigPush. */
struct ConfigAckMessage
{
    std::int32_t conditionId = 0;
};

/** Hub -> phone: a ConfigPush was rejected. */
struct ConfigRejectMessage
{
    std::int32_t conditionId = 0;
    /** Human-readable reason (validation or capability failure). */
    std::string reason;
};

/** Phone -> hub: remove an installed condition. */
struct ConfigRemoveMessage
{
    std::int32_t conditionId = 0;
};

/** Hub -> phone: a wake-up condition fired. */
struct WakeUpMessage
{
    std::int32_t conditionId = 0;
    /** Hub timestamp of the triggering value, seconds. */
    double timestamp = 0.0;
    /** Value that reached OUT. */
    double triggerValue = 0.0;
    /**
     * Recent raw samples of the condition's primary channel, oldest
     * first (Section 3.8: the implementation passes a buffer of raw
     * sensor data to the application).
     */
    std::vector<double> rawData;
};

/**
 * Hub -> phone: periodic liveness beacon (transport/reliable.h,
 * hub/runtime.h). `bootId` increments on every hub reset, so the phone
 * detects a brownout-induced state loss even when it never misses a
 * beacon.
 */
struct HeartbeatMessage
{
    /** Hub boot epoch; changes whenever the hub loses its state. */
    std::uint32_t bootId = 0;
    /** Seconds since the current boot. */
    double uptimeSeconds = 0.0;
};

/**
 * Phone -> hub: open a live-reconfiguration transaction.
 *
 * Epochs are monotonically increasing per hub boot; the hub refuses
 * epochs at or below its committed one, so a delayed retransmit from a
 * superseded update can never resurrect old configuration.
 */
struct UpdateBeginMessage
{
    /** Config epoch this transaction will commit as. */
    std::uint32_t epoch = 0;
};

/**
 * One node of a delta-encoded plan (DeltaPushMessage).
 *
 * Nodes whose canonical shareKey is already live on the hub travel as
 * an 8-byte FNV-1a hash reference (`reused`); the hub splices the
 * referenced subgraph — state and all — into the staged plan. Only
 * nodes the hub has never seen ship in full.
 */
struct DeltaNodeEntry
{
    /** True: reference to a live hub node by shareKey hash. */
    bool reused = false;
    /** FNV-1a 64-bit hash of the canonical shareKey (when reused). */
    std::uint64_t keyHash = 0;
    /** Algorithm name (when shipped in full). */
    std::string algorithm;
    /** Literal parameters (when shipped in full). */
    std::vector<double> params;
    /**
     * Inputs (when shipped in full): value >= 0 is an index into this
     * message's entries; value < 0 is channel -(value + 1) in the
     * message's channel-name table.
     */
    std::vector<std::int32_t> inputs;

    bool
    operator==(const DeltaNodeEntry &other) const
    {
        return reused == other.reused && keyHash == other.keyHash &&
               algorithm == other.algorithm && params == other.params &&
               inputs == other.inputs;
    }
};

/** Phone -> hub: one condition's plan, delta-encoded. */
struct DeltaPushMessage
{
    /** Epoch of the open transaction this delta belongs to. */
    std::uint32_t epoch = 0;
    /** Phone-assigned identifier of the condition. */
    std::int32_t conditionId = 0;
    /** Channel names referenced by shipped entries. */
    std::vector<std::string> channelNames;
    /** Topologically ordered nodes (inputs precede consumers). */
    std::vector<DeltaNodeEntry> entries;
    /** Index of the entry feeding OUT. */
    std::uint32_t outEntry = 0;
};

/** Phone -> hub: commit every plan staged under this epoch. */
struct UpdateCommitMessage
{
    std::uint32_t epoch = 0;
};

/** Phone -> hub: abandon the transaction open at this epoch. */
struct UpdateAbortMessage
{
    std::uint32_t epoch = 0;
};

/** Outcome of an update transaction, from the hub's point of view. */
enum class UpdateStatus : std::uint8_t {
    /** The staged plans are live; the hub's epoch is now `epoch`. */
    Committed = 0,
    /** Staging failed or stalled; the A plans kept running and the
        epoch was not bumped. `reason` says why; the phone may retry
        with a fresh epoch. */
    RolledBack = 1,
    /** The epoch was at or below the hub's committed one (a delayed
        duplicate); nothing changed. */
    Stale = 2,
};

/** Hub -> phone: outcome of an update transaction. */
struct UpdateAckMessage
{
    std::uint32_t epoch = 0;
    UpdateStatus status = UpdateStatus::Committed;
    /** Human-readable rollback reason (empty when committed). */
    std::string reason;
};

/** @{ Frame encoding of each message. */
Frame encodeConfigPush(const ConfigPushMessage &message);
Frame encodeConfigAck(const ConfigAckMessage &message);
Frame encodeConfigReject(const ConfigRejectMessage &message);
Frame encodeConfigRemove(const ConfigRemoveMessage &message);
Frame encodeWakeUp(const WakeUpMessage &message);
Frame encodeHeartbeat(const HeartbeatMessage &message);
Frame encodeUpdateBegin(const UpdateBeginMessage &message);
Frame encodeDeltaPush(const DeltaPushMessage &message);
Frame encodeUpdateCommit(const UpdateCommitMessage &message);
Frame encodeUpdateAbort(const UpdateAbortMessage &message);
Frame encodeUpdateAck(const UpdateAckMessage &message);
/** @} */

/**
 * @{ Frame decoding; each throws TransportError when the frame type or
 * payload shape does not match.
 */
ConfigPushMessage decodeConfigPush(const Frame &frame);
ConfigAckMessage decodeConfigAck(const Frame &frame);
ConfigRejectMessage decodeConfigReject(const Frame &frame);
ConfigRemoveMessage decodeConfigRemove(const Frame &frame);
WakeUpMessage decodeWakeUp(const Frame &frame);
HeartbeatMessage decodeHeartbeat(const Frame &frame);
UpdateBeginMessage decodeUpdateBegin(const Frame &frame);
DeltaPushMessage decodeDeltaPush(const Frame &frame);
UpdateCommitMessage decodeUpdateCommit(const Frame &frame);
UpdateAbortMessage decodeUpdateAbort(const Frame &frame);
UpdateAckMessage decodeUpdateAck(const Frame &frame);
/** @} */

/**
 * Wire bytes of @p message when framed as a plain (non-reliable)
 * ConfigPush: framing overhead + id + length-prefixed IL text. The
 * swlint SW202 note uses this to estimate hub-recovery re-push cost.
 */
std::size_t configPushWireBytes(const ConfigPushMessage &message);

/**
 * Wire bytes of @p message when framed as a plain (non-reliable)
 * DeltaPush. The SW202 reconfiguration note and `swlint --diff-plan`
 * use this to compare a delta update against a full re-push.
 */
std::size_t deltaPushWireBytes(const DeltaPushMessage &message);

/**
 * Wire bytes needed to ship @p sample_count samples in SensorBatch
 * frames of at most @p samples_per_frame samples: per frame, the
 * framing, a 32-byte header (channel, first timestamp, rate,
 * fixed-point scale, count) and two bytes per 16-bit sample. Nothing
 * sends such frames; bench_link_bandwidth prices the link with this.
 */
std::size_t sensorBatchWireBytes(std::size_t sample_count,
                                 std::size_t samples_per_frame = 1024);

/**
 * True when a link with @p usable_bits_per_second sustains continuous
 * streaming of one channel at @p sample_rate_hz in SensorBatch frames
 * — the Section 3.4 feasibility question ("the serial connection
 * provides sufficient bandwidth to support low bit-rate sensors ...
 * higher bit-rate sensors like the camera would require a higher
 * bandwidth data bus").
 */
bool canStreamContinuously(double usable_bits_per_second,
                           double sample_rate_hz);

} // namespace sidewinder::transport

#endif // SIDEWINDER_TRANSPORT_MESSAGES_H
