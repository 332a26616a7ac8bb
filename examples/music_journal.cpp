/**
 * @file
 * Music journal with a concurrent phrase detector — the multi-
 * application scenario of Section 7 of the paper ("the sensor manager
 * can attempt to improve performance by combining the pipelines that
 * use common algorithms").
 *
 * Installs both audio wake-up conditions on one hub and reports how
 * many algorithm instances the engine's node sharing saves, then
 * replays a coffee-shop recording and journals the songs (detected
 * locally in place of the Echoprint.me web service the paper used).
 *
 * Run:  ./music_journal [seconds=300]
 */

#include <cstdio>
#include <cstdlib>

#include "apps/apps.h"
#include "hub/engine.h"
#include "core/sensors.h"
#include "il/lower.h"
#include "trace/audio_gen.h"

using namespace sidewinder;

int
main(int argc, char **argv)
{
    const double seconds = argc > 1 ? std::atof(argv[1]) : 300.0;

    trace::AudioTraceConfig config;
    config.environment = trace::AudioEnvironment::CoffeeShop;
    config.durationSeconds = seconds;
    config.seed = 99;
    config.phraseProbability = 0.5;
    const trace::Trace cafe = generateAudioTrace(config);

    const auto music = apps::makeMusicJournalApp();
    const auto phrase = apps::makePhraseApp();

    // --- Node sharing across the two conditions ---------------------
    // An engine installs lowered plans; lowerOptions() lowers each the
    // way that engine instantiates it (a non-sharing one keeps every
    // statement as its own node).
    const il::Program music_il = music->wakeCondition().compile();
    const il::Program phrase_il = phrase->wakeCondition().compile();
    hub::Engine shared(core::audioChannels(), /*share_nodes=*/true);
    shared.addCondition(1, il::lower(music_il, shared.channels(),
                                     shared.lowerOptions()));
    const std::size_t music_only = shared.nodeCount();
    shared.addCondition(2, il::lower(phrase_il, shared.channels(),
                                     shared.lowerOptions()));

    hub::Engine unshared(core::audioChannels(), /*share_nodes=*/false);
    unshared.addCondition(1, il::lower(music_il, unshared.channels(),
                                       unshared.lowerOptions()));
    unshared.addCondition(2, il::lower(phrase_il, unshared.channels(),
                                       unshared.lowerOptions()));

    std::printf("hub algorithm instances: music alone %zu, both apps "
                "%zu shared vs %zu unshared (%.0f%% saved)\n",
                music_only, shared.nodeCount(), unshared.nodeCount(),
                100.0 * (1.0 - static_cast<double>(shared.nodeCount()) /
                                   static_cast<double>(
                                       unshared.nodeCount())));
    std::printf("estimated hub load: %.0f vs %.0f cycle units/s\n\n",
                shared.estimatedCyclesPerSecond(),
                unshared.estimatedCyclesPerSecond());

    // --- Replay the cafe; count wake-ups per condition ---------------
    int music_wakes = 0;
    int phrase_wakes = 0;
    const auto &audio = cafe.channels[0];
    for (std::size_t i = 0; i < audio.size(); ++i) {
        shared.pushSamples({audio[i]}, cafe.timeOf(i));
        for (const auto &event : shared.drainWakeEvents()) {
            if (event.conditionId == 1)
                ++music_wakes;
            else
                ++phrase_wakes;
        }
    }

    // --- The journal: main-CPU classification over the whole trace ---
    const auto songs = music->classify(cafe, 0, cafe.sampleCount());
    std::printf("%zu song(s) journaled over %.0f s (ground truth: "
                "%zu); %d music wake(s), %d speech wake(s)\n",
                songs.size(), cafe.durationSeconds(),
                cafe.eventsOfType("music").size(), music_wakes,
                phrase_wakes);
    for (double t : songs)
        std::printf("  song around t=%.0fs\n", t);
    return 0;
}
