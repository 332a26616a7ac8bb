#include "hub/runtime.h"

#include "hub/reconfig.h"
#include "il/analyze.h"
#include "il/analyze_range.h"
#include "il/lower.h"
#include "il/parser.h"
#include "support/error.h"
#include "support/logging.h"
#include "transport/messages.h"

namespace sidewinder::hub {

HubRuntime::HubRuntime(transport::LinkPair &link,
                       std::vector<il::ChannelInfo> channels,
                       McuModel mcu, bool share_nodes)
    : link(link), dataflow(std::move(channels), share_nodes),
      mcuModel(std::move(mcu))
{
}

void
HubRuntime::enableHeartbeats(double interval_seconds)
{
    if (!(interval_seconds > 0.0))
        throw ConfigError("heartbeat interval must be positive");
    heartbeatInterval = interval_seconds;
}

void
HubRuntime::enableReliableTransport(transport::ReliableConfig config)
{
    reliableConfig = config;
    reliable.emplace(link.hubToPhone(), config);
}

void
HubRuntime::setWakeCoalescing(double min_interval_seconds)
{
    if (min_interval_seconds < 0.0)
        throw ConfigError("wake coalescing interval must be >= 0");
    wakeCoalesceInterval = min_interval_seconds;
}

void
HubRuntime::sendToPhone(const transport::Frame &frame, double now)
{
    if (reliable)
        reliable->sendFrame(frame, now);
    else
        link.hubToPhone().sendFrame(frame, now);
}

void
HubRuntime::reboot(double now)
{
    // Brownout: RAM is gone. Rebuild the engine from the channel map
    // (which lives in ROM on a real hub) and forget every condition
    // and half-received frame.
    dataflow = Engine(std::vector<il::ChannelInfo>(dataflow.channels()),
                      dataflow.lowerOptions().dedupe);
    lastWakeSent.clear();
    decoderDropsBeforeReboot += decoder.droppedBytes();
    decoder = transport::FrameDecoder();
    if (reliable)
        // reset() flushes undelivered frames and dedup state but keeps
        // the counters cumulative, so per-run fault metrics survive
        // the power cycle.
        reliable->reset();
    ++bootEpoch;
    bootTime = now;
    heartbeatSent = false;
    // An update transaction dies with the RAM that held its staged
    // plans; the phone's supervisor notices the boot-epoch change and
    // retries. The committed epoch also lived in RAM — re-pushed
    // configs and the next update re-establish it.
    if (txn) {
        ++updatesRolledBackCount;
        txn.reset();
    }
    committedEpoch = 0;
    swapPending = false;
    lastWaveTime = -1.0;
}

bool
HubRuntime::updateStalled(double now) const
{
    return txn && now - txn->lastFrameAt > updateStallTimeoutSeconds;
}

bool
HubRuntime::heartbeatDue(double now) const
{
    return heartbeatInterval > 0.0 &&
           (!heartbeatSent || now >= lastHeartbeat + heartbeatInterval);
}

bool
HubRuntime::linkDue(double now) const
{
    return link.phoneToHub().due(now) || decoder.due(now) ||
           (reliable && reliable->due(now)) || updateStalled(now) ||
           heartbeatDue(now);
}

void
HubRuntime::pollLink(double now)
{
    // The line is idle on almost every wave. With nothing due, every
    // step below would be a no-op.
    if (!linkDue(now))
        return;

    decoder.feed(link.phoneToHub().receive(now));
    decoder.tickStall(now);
    while (auto frame = decoder.poll()) {
        // A CRC collision on a noisy line can hand us a structurally
        // valid frame with garbage inside; decoding exceptions must
        // not wedge the hub loop.
        try {
            if (reliable) {
                if (auto inner = reliable->onFrame(*frame, now))
                    handleFrame(*inner, now);
            } else {
                handleFrame(*frame, now);
            }
        } catch (const TransportError &error) {
            warn(std::string("hub: dropping undecodable frame: ") +
                 error.what());
        }
    }

    if (reliable)
        reliable->tick(now);

    // Mid-update death of the phone (or of the link beyond what ARQ
    // recovers) must not park staged plans in the shadow slot
    // forever: when the update frames stop, roll back to the A copy.
    if (updateStalled(now))
        rollbackUpdate(now, "update stalled mid-transfer");

    if (heartbeatDue(now)) {
        transport::HeartbeatMessage beat;
        beat.bootId = bootEpoch;
        beat.uptimeSeconds = now - bootTime;
        // Directly on the wire: beacons must stay timely even when the
        // reliable queue is backed up with retransmissions.
        link.hubToPhone().sendFrame(transport::encodeHeartbeat(beat),
                                    now);
        lastHeartbeat = now;
        heartbeatSent = true;
    }
}

void
HubRuntime::handleFrame(const transport::Frame &frame, double now)
{
    switch (frame.type) {
      case transport::MessageType::ConfigPush: {
        const auto message = transport::decodeConfigPush(frame);
        try {
            const il::Program program = il::parse(message.ilText);

            // Re-pushes after a hub recovery (and retransmissions that
            // slipped past duplicate suppression) carry ids we may
            // already hold: replace rather than reject, so a push is
            // idempotent.
            if (dataflow.hasCondition(message.conditionId))
                dataflow.removeCondition(message.conditionId);
            dataflow.addCondition(message.conditionId,
                                  admit(program, "condition", ""));
            sendToPhone(
                transport::encodeConfigAck({message.conditionId}), now);
        } catch (const SidewinderError &error) {
            sendToPhone(transport::encodeConfigReject(
                            {message.conditionId, error.what()}),
                        now);
        }
        return;
      }
      case transport::MessageType::UpdateBegin: {
        const auto message = transport::decodeUpdateBegin(frame);
        if (message.epoch <= committedEpoch) {
            ++staleEpochMessagesCount;
            sendToPhone(transport::encodeUpdateAck(
                            {message.epoch,
                             transport::UpdateStatus::Stale,
                             "epoch already superseded"}),
                        now);
            return;
        }
        if (txn && txn->epoch == message.epoch) {
            // Duplicate begin (retransmit after a link recovery).
            txn->lastFrameAt = now;
            return;
        }
        if (txn)
            // A newer transaction supersedes an unfinished older one.
            rollbackUpdate(now, "superseded by epoch " +
                                    std::to_string(message.epoch));
        txn = UpdateTxn{message.epoch, now, false, {}};
        return;
      }
      case transport::MessageType::DeltaPush: {
        const auto message = transport::decodeDeltaPush(frame);
        if (message.epoch <= committedEpoch) {
            ++staleEpochMessagesCount;
            return;
        }
        if (!txn || txn->epoch != message.epoch) {
            // The begin was lost (e.g. across a reboot mid-retry);
            // the retrying phone's delta implicitly re-opens.
            if (txn)
                rollbackUpdate(now, "superseded by epoch " +
                                        std::to_string(message.epoch));
            txn = UpdateTxn{message.epoch, now, false, {}};
        }
        txn->lastFrameAt = now;
        if (txn->failed)
            // Already doomed — ignore the rest of the transfer; the
            // commit will carry the first failure back to the phone.
            return;
        try {
            dataflow.stageCondition(
                message.conditionId,
                admit(spliceDeltaProgram(message, dataflow), "update",
                      " during the A/B window"));
        } catch (const SidewinderError &error) {
            txn->failed = true;
            txn->failReason = error.what();
        }
        return;
      }
      case transport::MessageType::UpdateCommit: {
        const auto message = transport::decodeUpdateCommit(frame);
        if (message.epoch == committedEpoch && committedEpoch != 0) {
            // Retransmit of a commit we already applied: re-ack so
            // the phone converges (idempotent commit).
            sendToPhone(transport::encodeUpdateAck(
                            {message.epoch,
                             transport::UpdateStatus::Committed, ""}),
                        now);
            return;
        }
        if (message.epoch < committedEpoch) {
            ++staleEpochMessagesCount;
            sendToPhone(transport::encodeUpdateAck(
                            {message.epoch,
                             transport::UpdateStatus::Stale,
                             "epoch already superseded"}),
                        now);
            return;
        }
        if (!txn || txn->epoch != message.epoch) {
            ++staleEpochMessagesCount;
            sendToPhone(transport::encodeUpdateAck(
                            {message.epoch,
                             transport::UpdateStatus::RolledBack,
                             "no open update transaction"}),
                        now);
            return;
        }
        if (txn->failed) {
            rollbackUpdate(now, txn->failReason);
            return;
        }
        if (dataflow.stagedCount() == 0) {
            rollbackUpdate(now, "commit with nothing staged");
            return;
        }
        // The atomic A/B swap. pollLink runs between pushes, so the
        // swap lands between two evaluation waves: the A plans saw
        // every wave up to here, the B plans see every wave after —
        // no sample is evaluated by neither or both.
        dataflow.commitStaged();
        committedEpoch = message.epoch;
        if (reliable) {
            // Delayed retransmits from before this swap must never
            // be delivered as fresh configuration.
            reliable->setMinimumEpoch(committedEpoch);
            reliable->setLocalEpoch(committedEpoch);
        }
        swapPending = true;
        swapLastWave = lastWaveTime;
        ++updatesCommittedCount;
        txn.reset();
        sendToPhone(
            transport::encodeUpdateAck(
                {message.epoch, transport::UpdateStatus::Committed, ""}),
            now);
        return;
      }
      case transport::MessageType::UpdateAbort: {
        const auto message = transport::decodeUpdateAbort(frame);
        if (txn && txn->epoch == message.epoch)
            rollbackUpdate(now, "aborted by the phone");
        return;
      }
      case transport::MessageType::ConfigRemove: {
        const auto message = transport::decodeConfigRemove(frame);
        try {
            dataflow.removeCondition(message.conditionId);
            sendToPhone(
                transport::encodeConfigAck({message.conditionId}), now);
        } catch (const SidewinderError &error) {
            sendToPhone(transport::encodeConfigReject(
                            {message.conditionId, error.what()}),
                        now);
        }
        return;
      }
      default:
        warn("hub: ignoring unexpected frame type " +
             std::to_string(static_cast<int>(frame.type)));
    }
}

namespace {

/** Throw ParseError listing every error in @p diagnostics, if any. */
void
rejectOnErrors(const std::vector<il::Diagnostic> &diagnostics,
               std::string reason)
{
    bool rejected = false;
    for (const auto &d : diagnostics) {
        if (d.severity != il::Severity::Error)
            continue;
        rejected = true;
        reason += " [" + d.code + "] " + d.message + ";";
    }
    if (rejected)
        throw ParseError(reason);
}

} // namespace

il::ExecutionPlan
HubRuntime::admit(const il::Program &program, const std::string &what,
                  const std::string &window) const
{
    // Pre-instantiation check: one walk analyzes and lowers, and
    // admission rejects on its verdict before any kernel is built —
    // with every error, not just the first. The plan that walk built
    // prices admission and gets installed, so the gate's verdict and
    // the runtime's account can never diverge.
    il::AnalysisResult analysis = il::analyze(
        program, dataflow.channels(), dataflow.lowerOptions());
    rejectOnErrors(analysis.diagnostics,
                   "static analysis rejected the " + what + ":");
    il::ExecutionPlan plan = std::move(analysis.plan);

    // Value-range gate: the interval interpreter must not flag the
    // plan (Q15 saturation proofs when the engine runs fixed-point
    // kernels). A plan unsound for the active numeric mode must never
    // run, whether it arrives whole or as a delta.
    il::RangeOptions range_options;
    range_options.q15 = dataflow.kernelMode() == KernelMode::FixedQ15;
    rejectOnErrors(il::analyzeRanges(plan, range_options).diagnostics,
                   "range analysis rejected the " + what + ":");

    // Capability gate: the engine's load plus this plan's *marginal*
    // cost (nodes the engine already shares are free) must fit the
    // MCU's real-time and RAM budgets. During an update the load
    // already charges the live copies and anything staged so far, so
    // this prices the worst instant of the A/B window.
    const il::ProgramCost marginal = dataflow.marginalCost(plan);
    const double load =
        dataflow.estimatedCyclesPerSecond() + marginal.cyclesPerSecond;
    if (!canRunInRealTime(mcuModel, load))
        throw CapabilityError(
            what + " needs " + std::to_string(load) + " cycle units/s" +
            window + "; " + mcuModel.name + " sustains " +
            std::to_string(mcuModel.cyclesPerSecond));
    const std::size_t ram = dataflow.estimatedRamBytes() + marginal.ramBytes;
    if (mcuModel.ramBytes > 0 && ram > mcuModel.ramBytes)
        throw CapabilityError(
            what + " needs " + std::to_string(ram) + " bytes of hub RAM" +
            window + "; " + mcuModel.name + " has " +
            std::to_string(mcuModel.ramBytes));
    return plan;
}

void
HubRuntime::rollbackUpdate(double now, const std::string &reason)
{
    dataflow.abortStaged();
    const std::uint32_t epoch = txn ? txn->epoch : 0;
    // Copy before the reset: callers pass txn->failReason, which
    // txn.reset() would destroy out from under the reference.
    const std::string why = reason;
    txn.reset();
    ++updatesRolledBackCount;
    // The epoch stays un-bumped: the failed transaction never
    // existed as far as ordering is concerned, and the phone retries
    // under a fresh epoch.
    sendToPhone(transport::encodeUpdateAck(
                    {epoch, transport::UpdateStatus::RolledBack, why}),
                now);
}

void
HubRuntime::forwardWakeEvents()
{
    for (const auto &event : dataflow.drainWakeEvents()) {
        if (wakeCoalesceInterval > 0.0) {
            const auto last = lastWakeSent.find(event.conditionId);
            if (last != lastWakeSent.end() &&
                event.timestamp - last->second < wakeCoalesceInterval) {
                ++coalescedWakes;
                continue;
            }
            lastWakeSent[event.conditionId] = event.timestamp;
        }
        transport::WakeUpMessage message;
        message.conditionId = event.conditionId;
        message.timestamp = event.timestamp;
        message.triggerValue = event.value;
        message.rawData = dataflow.rawSnapshot(event.conditionId);
        sendToPhone(transport::encodeWakeUp(message), event.timestamp);
    }
}

void
HubRuntime::pushSamples(const std::vector<double> &values,
                        double timestamp)
{
    dataflow.pushSamples(values, timestamp);
    if (swapPending) {
        // First wave after a committed swap closes the blind window:
        // the gap between the last wave the A plans evaluated and the
        // first wave the B plans see. Under zero loss this is one
        // sample period.
        if (swapLastWave >= 0.0)
            blindWindow = timestamp - swapLastWave;
        swapPending = false;
    }
    lastWaveTime = timestamp;
    forwardWakeEvents();
}

} // namespace sidewinder::hub
