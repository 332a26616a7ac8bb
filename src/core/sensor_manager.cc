#include "core/sensor_manager.h"

#include <unordered_set>

#include "hub/placer.h"
#include "hub/reconfig.h"
#include "il/analyze.h"
#include "il/delta.h"
#include "il/writer.h"
#include "support/error.h"
#include "support/logging.h"
#include "transport/messages.h"

namespace sidewinder::core {

SidewinderSensorManager::SidewinderSensorManager(
    transport::LinkPair &link, std::vector<il::ChannelInfo> channels)
    : link(link), channels(std::move(channels))
{
}

void
SidewinderSensorManager::enableReliableTransport(
    transport::ReliableConfig config)
{
    reliable.emplace(link.phoneToHub(), config);
}

void
SidewinderSensorManager::enableSupervision(SupervisionConfig config,
                                           double now)
{
    if (!(config.heartbeatIntervalSeconds > 0.0))
        throw ConfigError("heartbeat interval must be positive");
    if (!(config.missedBeatsThreshold > 0.0))
        throw ConfigError("missed-beat threshold must be positive");
    supervising = true;
    supConfig = config;
    lastBeatTime = now;
}

void
SidewinderSensorManager::sendToHub(const transport::Frame &frame,
                                   double now)
{
    if (reliable)
        reliable->sendFrame(frame, now);
    else
        link.phoneToHub().sendFrame(frame, now);
}

int
SidewinderSensorManager::push(const ProcessingPipeline &pipeline,
                              SensorEventListener *listener, double now)
{
    if (listener == nullptr)
        throw ConfigError("push requires a SensorEventListener");

    // Statically analyze the developer's pipeline as written, then
    // ship the canonical form of the plan that analysis lowered:
    // branches sharing a prefix (common in multi-feature conditions)
    // collapse to one chain on the wire, with dense ids in schedule
    // order.
    const il::AnalysisResult analysis =
        il::analyze(pipeline.compile(), channels);
    if (!analysis.ok())
        throw ParseError("pipeline failed static analysis:\n" +
                         il::renderText(analysis, "<pipeline>"));
    const il::ExecutionPlan &plan = analysis.plan;

    const int condition_id = nextConditionId++;
    Entry entry;
    entry.listener = listener;
    entry.ilText = il::write(plan.toProgram());
    // Shadow the plan's canonical shareKeys: they are the hub-side
    // identity of every node this push instantiates, and the basis
    // future delta updates are computed against.
    entry.shareKeys = plan.shareKeys;
    // Surface the analyzer's warnings at push time — except SW101
    // (duplicate subtrees), which lowering just resolved.
    for (const auto &d : analysis.diagnostics) {
        if (d.severity == il::Severity::Error ||
            d.code == il::SW101_DUPLICATE_SUBTREE)
            continue;
        entry.pushDiagnostics.push_back(d);
        if (d.severity == il::Severity::Warning)
            warn("push: [" + d.code + "] " + d.message +
                 (d.hint.empty() ? "" : " (hint: " + d.hint + ")"));
    }
    // Home the condition across the whole platform space (MCUs, FPGA
    // fabric, AP fallback) and surface the verdict as an SW203 note.
    // The AP fallback makes the placer total, so this never rejects.
    entry.placement =
        hub::placeCondition(plan, hub::platformExecutors());
    entry.pushDiagnostics.push_back(
        hub::placementNote(entry.placement));
    entries[condition_id] = entry;

    sendToHub(transport::encodeConfigPush({condition_id, entry.ilText}),
              now);
    return condition_id;
}

void
SidewinderSensorManager::remove(int condition_id, double now)
{
    auto it = entries.find(condition_id);
    if (it == entries.end())
        throw ConfigError("unknown condition id " +
                          std::to_string(condition_id));
    it->second.state = ConditionState::Removed;
    sendToHub(transport::encodeConfigRemove({condition_id}), now);
}

std::uint32_t
SidewinderSensorManager::beginUpdate(double now)
{
    if (pendingUpdate)
        throw ConfigError("an update transaction is already open");
    if (hubIsDown)
        throw ConfigError("cannot open an update while the hub is down");
    PendingUpdate update;
    update.epoch = nextEpoch++;
    pendingUpdate = std::move(update);
    updateError.clear();
    if (reliable)
        // Stamp everything this transaction sends with its epoch so
        // the hub can refuse delayed retransmits of it after a later
        // commit raises the floor.
        reliable->setLocalEpoch(pendingUpdate->epoch);
    sendToHub(transport::encodeUpdateBegin({pendingUpdate->epoch}), now);
    return pendingUpdate->epoch;
}

void
SidewinderSensorManager::updateCondition(
    int condition_id, const ProcessingPipeline &pipeline, double now)
{
    if (!pendingUpdate)
        throw ConfigError(
            "updateCondition outside an update transaction");
    if (pendingUpdate->commitSent)
        throw ConfigError("update transaction already committed");
    auto it = entries.find(condition_id);
    if (it == entries.end() ||
        it->second.state == ConditionState::Removed)
        throw ConfigError("unknown condition id " +
                          std::to_string(condition_id));

    const il::AnalysisResult analysis =
        il::analyze(pipeline.compile(), channels);
    if (!analysis.ok())
        throw ParseError("pipeline failed static analysis:\n" +
                         il::renderText(analysis, "<pipeline>"));
    const il::ExecutionPlan &plan = analysis.plan;

    // The hub's presumed-live node set: every shareKey of every
    // installed condition (including the old version of the one being
    // replaced — its unchanged subgraph is exactly the reuse target)
    // plus whatever this transaction already staged. Those nodes are
    // resolvable by hash on the hub, so they need not travel again.
    std::unordered_set<std::string> live_keys;
    for (const auto &[id, entry] : entries) {
        if (entry.state == ConditionState::Removed ||
            entry.state == ConditionState::Rejected)
            continue;
        live_keys.insert(entry.shareKeys.begin(),
                         entry.shareKeys.end());
    }
    for (const auto &[id, staged] : pendingUpdate->staged)
        live_keys.insert(staged.shareKeys.begin(),
                         staged.shareKeys.end());

    const il::PlanDelta delta = il::computeDelta(plan, live_keys);
    const transport::DeltaPushMessage message = hub::buildDeltaPush(
        plan, delta, pendingUpdate->epoch, condition_id);

    reconStats.nodesShipped += delta.shippedNodes.size();
    reconStats.nodesReused += delta.reusedRefs.size();
    reconStats.deltaWireBytes +=
        transport::deltaPushWireBytes(message);
    StagedEntry staged;
    staged.ilText = il::write(plan.toProgram());
    staged.shareKeys = plan.shareKeys;
    reconStats.fullPushWireBytes += transport::configPushWireBytes(
        {condition_id, staged.ilText});
    pendingUpdate->staged[condition_id] = std::move(staged);

    sendToHub(transport::encodeDeltaPush(message), now);
}

void
SidewinderSensorManager::commitUpdate(double now)
{
    if (!pendingUpdate)
        throw ConfigError("commitUpdate outside an update transaction");
    if (pendingUpdate->staged.empty())
        throw ConfigError("commitUpdate with no staged conditions");
    pendingUpdate->commitSent = true;
    sendToHub(transport::encodeUpdateCommit({pendingUpdate->epoch}),
              now);
}

void
SidewinderSensorManager::abortUpdate(double now)
{
    if (!pendingUpdate)
        return;
    sendToHub(transport::encodeUpdateAbort({pendingUpdate->epoch}),
              now);
    discardUpdate("aborted locally");
}

void
SidewinderSensorManager::discardUpdate(const std::string &reason)
{
    pendingUpdate.reset();
    updateError = reason;
    ++reconStats.updatesRolledBack;
    if (reliable)
        // Back to the last committed epoch: frames we send from here
        // on must not look like they belong to the dead transaction.
        reliable->setLocalEpoch(committedEpoch);
}

void
SidewinderSensorManager::recoverHub(double now)
{
    // A hub that lost its RAM also lost anything we had staged; the
    // application retries the update once the re-pushes settle.
    if (pendingUpdate)
        discardUpdate("hub rebooted mid-update");
    if (hubIsDown) {
        closedDownWindows.emplace_back(downSince, now);
        hubIsDown = false;
    }
    // Frames queued for the dead hub (and its stale dedup state) are
    // worthless now; start the conversation over, then re-push every
    // condition the application still wants from the shadow copies.
    if (reliable)
        reliable->reset();
    for (auto &[id, entry] : entries) {
        if (entry.state == ConditionState::Removed ||
            entry.state == ConditionState::Rejected)
            continue;
        entry.state = ConditionState::Pending;
        sendToHub(transport::encodeConfigPush({id, entry.ilText}), now);
        ++supStats.repushedConditions;
    }
}

double
SidewinderSensorManager::hubDownSeconds(double now) const
{
    double total = 0.0;
    for (const auto &[start, end] : closedDownWindows)
        total += end - start;
    if (hubIsDown && now > downSince)
        total += now - downSince;
    return total;
}

bool
SidewinderSensorManager::heartbeatsMissed(double now) const
{
    return supervising && !hubIsDown &&
           now - lastBeatTime > supConfig.heartbeatIntervalSeconds *
                                    supConfig.missedBeatsThreshold;
}

bool
SidewinderSensorManager::pollDue(double now) const
{
    return link.hubToPhone().due(now) || decoder.due(now) ||
           (reliable && reliable->due(now)) || heartbeatsMissed(now);
}

void
SidewinderSensorManager::poll(double now)
{
    // The line is idle on almost every wave. With nothing due, every
    // step below would be a no-op.
    if (!pollDue(now))
        return;

    decoder.feed(link.hubToPhone().receive(now));
    decoder.tickStall(now);
    while (auto frame = decoder.poll()) {
        // A CRC collision can hand us a structurally valid frame with
        // garbage inside; decoding exceptions must not wedge the app.
        try {
            if (reliable) {
                if (auto inner = reliable->onFrame(*frame, now))
                    handleFrame(*inner, now);
            } else {
                handleFrame(*frame, now);
            }
        } catch (const TransportError &error) {
            warn(std::string("manager: dropping undecodable frame: ") +
                 error.what());
        }
    }

    if (reliable)
        reliable->tick(now);

    if (heartbeatsMissed(now)) {
        hubIsDown = true;
        downSince = now;
        ++supStats.hubDeathsDetected;
        // Heartbeat-driven rollback: a silent hub cannot finish the
        // transfer. Its own stall timeout reclaims the shadow slot; we
        // drop ours and tell it (best-effort) so a hub that is merely
        // unreachable rolls back promptly too.
        if (pendingUpdate) {
            sendToHub(
                transport::encodeUpdateAbort({pendingUpdate->epoch}), now);
            discardUpdate("hub heartbeats vanished mid-update");
        }
    }
}

void
SidewinderSensorManager::handleFrame(const transport::Frame &frame,
                                     double now)
{
    switch (frame.type) {
      case transport::MessageType::ConfigAck: {
        const auto message = transport::decodeConfigAck(frame);
        auto it = entries.find(message.conditionId);
        if (it != entries.end() &&
            it->second.state == ConditionState::Pending)
            it->second.state = ConditionState::Active;
        break;
      }
      case transport::MessageType::ConfigReject: {
        const auto message = transport::decodeConfigReject(frame);
        auto it = entries.find(message.conditionId);
        if (it != entries.end()) {
            it->second.state = ConditionState::Rejected;
            it->second.reason = message.reason;
        }
        break;
      }
      case transport::MessageType::WakeUp: {
        auto message = transport::decodeWakeUp(frame);
        auto it = entries.find(message.conditionId);
        if (it == entries.end() ||
            it->second.state == ConditionState::Removed)
            break;
        SensorData data;
        data.conditionId = message.conditionId;
        data.timestamp = message.timestamp;
        data.triggerValue = message.triggerValue;
        data.rawData = std::move(message.rawData);
        it->second.listener->onSensorEvent(data);
        break;
      }
      case transport::MessageType::UpdateAck: {
        const auto message = transport::decodeUpdateAck(frame);
        if (!pendingUpdate || message.epoch != pendingUpdate->epoch)
            // Ack for a transaction we already gave up on (e.g. a
            // stall-rollback crossing our commit on the wire).
            break;
        if (message.status == transport::UpdateStatus::Committed) {
            // The swap happened: the staged replacements are now the
            // truth, so they become the shadow copies future deltas
            // and re-pushes are computed from.
            for (auto &[id, staged] : pendingUpdate->staged) {
                Entry &entry = entries[id];
                entry.ilText = std::move(staged.ilText);
                entry.shareKeys = std::move(staged.shareKeys);
                entry.state = ConditionState::Active;
            }
            committedEpoch = pendingUpdate->epoch;
            pendingUpdate.reset();
            updateError.clear();
            ++reconStats.updatesCommitted;
        } else {
            // RolledBack or Stale: the hub kept (or reverted to) its
            // A plans and the epoch never advanced. Drop the staged
            // copies and surface the reason so the application can
            // retry under a fresh epoch.
            discardUpdate(message.reason.empty()
                              ? "hub refused the update"
                              : message.reason);
        }
        break;
      }
      case transport::MessageType::Heartbeat: {
        if (!supervising)
            break;
        const auto beat = transport::decodeHeartbeat(frame);
        lastBeatTime = now;
        const bool rebooted = haveBootId && beat.bootId != lastBootId;
        lastBootId = beat.bootId;
        haveBootId = true;
        if (rebooted)
            ++supStats.rebootsDetected;
        // A new boot epoch means the hub forgot everything even if we
        // never missed a beacon; silence followed by any beacon means
        // the hub (or the link) came back.
        if (rebooted || hubIsDown)
            recoverHub(now);
        break;
      }
      default:
        warn("manager: ignoring unexpected frame type " +
             std::to_string(static_cast<int>(frame.type)));
    }
}

const SidewinderSensorManager::Entry &
SidewinderSensorManager::entryOf(int condition_id) const
{
    auto it = entries.find(condition_id);
    if (it == entries.end())
        throw ConfigError("unknown condition id " +
                          std::to_string(condition_id));
    return it->second;
}

ConditionState
SidewinderSensorManager::state(int condition_id) const
{
    return entryOf(condition_id).state;
}

std::string
SidewinderSensorManager::rejectionReason(int condition_id) const
{
    return entryOf(condition_id).reason;
}

std::string
SidewinderSensorManager::ilTextOf(int condition_id) const
{
    return entryOf(condition_id).ilText;
}

const std::vector<il::Diagnostic> &
SidewinderSensorManager::pushDiagnostics(int condition_id) const
{
    return entryOf(condition_id).pushDiagnostics;
}

const hub::PlacementDecision &
SidewinderSensorManager::placementOf(int condition_id) const
{
    return entryOf(condition_id).placement;
}

} // namespace sidewinder::core
