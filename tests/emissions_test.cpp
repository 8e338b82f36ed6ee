#include <gtest/gtest.h>

#include "emissions/electricity_maps.h"
#include "emissions/owid.h"
#include "emissions/provider.h"
#include "emissions/rte.h"

namespace ceems::emissions {
namespace {

using common::kMillisPerDay;
using common::kMillisPerHour;
using common::kMillisPerMinute;

TEST(Emissions, GramsFromJoules) {
  // 1 kWh at 56 g/kWh = 56 g.
  EXPECT_DOUBLE_EQ(emissions_grams(3.6e6, 56.0), 56.0);
  EXPECT_DOUBLE_EQ(emissions_grams(0, 500), 0);
}

TEST(Owid, KnownCountries) {
  OwidProvider owid;
  auto fr = owid.factor("FR", 0);
  ASSERT_TRUE(fr.has_value());
  EXPECT_DOUBLE_EQ(fr->gco2_per_kwh, 56);
  EXPECT_FALSE(fr->realtime);
  EXPECT_EQ(fr->provider, "owid");
  // France is far cleaner than Poland.
  EXPECT_LT(fr->gco2_per_kwh, owid.factor("PL", 0)->gco2_per_kwh / 5);
  EXPECT_FALSE(owid.factor("XX", 0).has_value());
}

TEST(Rte, OnlyCoversFrance) {
  RteProvider rte;
  EXPECT_TRUE(rte.factor("FR", 0).has_value());
  EXPECT_FALSE(rte.factor("DE", 0).has_value());
}

TEST(Rte, DiurnalPattern) {
  // Evening peak (19h) dirtier than mid-night (03h), on the same day.
  common::TimestampMs night = 3 * kMillisPerHour;
  common::TimestampMs evening = 19 * kMillisPerHour;
  EXPECT_GT(RteProvider::model_gco2_per_kwh(evening),
            RteProvider::model_gco2_per_kwh(night));
}

TEST(Rte, SeasonalWinterUplift) {
  // Mid-January noon vs mid-July noon (at identical time of day).
  common::TimestampMs january = 15 * kMillisPerDay + 12 * kMillisPerHour;
  common::TimestampMs july = 196 * kMillisPerDay + 12 * kMillisPerHour;
  EXPECT_GT(RteProvider::model_gco2_per_kwh(january),
            RteProvider::model_gco2_per_kwh(july));
}

TEST(Rte, QuantizedToFifteenMinutes) {
  common::TimestampMs t = 7 * kMillisPerHour;
  EXPECT_DOUBLE_EQ(RteProvider::model_gco2_per_kwh(t),
                   RteProvider::model_gco2_per_kwh(t + 14 * kMillisPerMinute));
  EXPECT_NE(RteProvider::model_gco2_per_kwh(t),
            RteProvider::model_gco2_per_kwh(t + 15 * kMillisPerMinute));
}

TEST(Rte, DeterministicOutages) {
  RteProvider flaky(/*availability=*/0.5);
  int available = 0;
  for (int slot = 0; slot < 400; ++slot) {
    common::TimestampMs t = slot * 15 * kMillisPerMinute;
    bool first = flaky.factor("FR", t).has_value();
    bool second = flaky.factor("FR", t).has_value();
    EXPECT_EQ(first, second);  // deterministic in t
    if (first) ++available;
  }
  EXPECT_NEAR(available, 200, 50);
}

TEST(EMaps, MultiZoneRealtime) {
  auto clock = common::make_sim_clock(0);
  ElectricityMapsProvider emaps(clock, {.max_requests_per_hour = 0});
  for (const char* zone : {"FR", "DE", "PL", "SE"}) {
    auto factor = emaps.factor(zone, 12 * kMillisPerHour);
    ASSERT_TRUE(factor.has_value()) << zone;
    EXPECT_TRUE(factor->realtime);
  }
  EXPECT_FALSE(emaps.factor("ZZ", 0).has_value());
  // Relative ordering of grid carbon intensity preserved.
  EXPECT_LT(emaps.factor("SE", 0)->gco2_per_kwh,
            emaps.factor("DE", 0)->gco2_per_kwh);
}

TEST(EMaps, SolarDipAtMidday) {
  auto germany_at = [](double hour) {
    return *ElectricityMapsProvider::model_gco2_per_kwh(
        "DE", static_cast<common::TimestampMs>(hour * kMillisPerHour));
  };
  EXPECT_LT(germany_at(13.0), germany_at(19.0));
}

TEST(EMaps, RateLimitEnforced) {
  auto clock = common::make_sim_clock(0);
  ElectricityMapsProvider emaps(clock, {.max_requests_per_hour = 5});
  int granted = 0;
  for (int i = 0; i < 10; ++i) {
    if (emaps.factor("FR", clock->now_ms()).has_value()) ++granted;
  }
  EXPECT_EQ(granted, 5);
  EXPECT_EQ(emaps.requests_rejected(), 5u);
  // Quota refills after the rolling hour.
  clock->advance(kMillisPerHour + 1);
  EXPECT_TRUE(emaps.factor("FR", clock->now_ms()).has_value());
}

TEST(Caching, StaysUnderQuotaAndServesStale) {
  auto clock = common::make_sim_clock(0);
  auto inner = std::make_shared<ElectricityMapsProvider>(
      clock, EMapsConfig{.max_requests_per_hour = 2});
  CachingProvider cached(inner, /*ttl_ms=*/15 * kMillisPerMinute);

  // 60 reads over 30 min at 30 s cadence → only 2 upstream fetches.
  int served = 0;
  for (int i = 0; i < 60; ++i) {
    if (cached.factor("FR", clock->now_ms()).has_value()) ++served;
    clock->advance(30000);
  }
  EXPECT_EQ(served, 60);
  EXPECT_LE(inner->requests_made(), 3u);
  EXPECT_GT(cached.cache_hits(), 50u);
}

TEST(Chain, RealtimeFirstStaticFallback) {
  auto clock = common::make_sim_clock(0);
  ProviderChain chain({
      std::make_shared<RteProvider>(),
      std::make_shared<OwidProvider>(),
  });
  // France: RTE answers.
  auto fr = chain.factor("FR", 0);
  ASSERT_TRUE(fr.has_value());
  EXPECT_EQ(fr->provider, "rte");
  // Germany: RTE declines, OWID answers.
  auto de = chain.factor("DE", 0);
  ASSERT_TRUE(de.has_value());
  EXPECT_EQ(de->provider, "owid");
  // Unknown zone: nobody answers.
  EXPECT_FALSE(chain.factor("XX", 0).has_value());
}

TEST(Chain, RateLimited429FallsThroughToNextProvider) {
  auto clock = common::make_sim_clock(0);
  // Rate-limited EMaps first, OWID fallback: once the quota is burnt the
  // chain must keep answering from the next provider, not go dark.
  auto emaps = std::make_shared<ElectricityMapsProvider>(
      clock, EMapsConfig{.max_requests_per_hour = 2});
  ProviderChain chain({emaps, std::make_shared<OwidProvider>()});

  for (int i = 0; i < 6; ++i) {
    auto factor = chain.factor("DE", clock->now_ms());
    ASSERT_TRUE(factor.has_value()) << i;
    EXPECT_EQ(factor->provider, i < 2 ? "emaps" : "owid") << i;
    clock->advance(30000);
  }
  EXPECT_EQ(emaps->requests_rejected(), 4u);
}

TEST(Chain, FaultInjectionTriggersFallback) {
  faults::FaultHook hook = [](std::string_view site, std::string_view key) {
    EXPECT_EQ(site, "emissions.provider");
    faults::FaultDecision fault;
    if (key == "rte/FR") fault.kind = faults::FaultKind::kHttpStatus;
    return fault;
  };
  auto rte = std::make_shared<FaultInjectedProvider>(
      std::make_shared<RteProvider>(), hook);
  ProviderChain chain({rte, std::make_shared<OwidProvider>()});
  auto fr = chain.factor("FR", 0);
  ASSERT_TRUE(fr.has_value());
  EXPECT_EQ(fr->provider, "owid");  // rte was faulted away
  EXPECT_EQ(rte->faults_injected(), 1u);
}

TEST(Chain, LastKnownGoodServedUntilTtlExpires) {
  auto clock = common::make_sim_clock(0);
  bool down = false;
  faults::FaultHook hook = [&](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    if (down) fault.kind = faults::FaultKind::kUnavailable;
    return fault;
  };
  ProviderChain chain(
      {std::make_shared<FaultInjectedProvider>(
          std::make_shared<OwidProvider>(), hook)},
      /*lkg_ttl_ms=*/10 * kMillisPerMinute);

  auto live = chain.factor("FR", clock->now_ms());
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(chain.lkg_served(), 0u);

  // Total outage: the cached factor carries the chain inside the TTL...
  down = true;
  clock->advance(5 * kMillisPerMinute);
  auto cached = chain.factor("FR", clock->now_ms());
  ASSERT_TRUE(cached.has_value());
  EXPECT_DOUBLE_EQ(cached->gco2_per_kwh, live->gco2_per_kwh);
  EXPECT_EQ(chain.lkg_served(), 1u);

  // ...and at exactly the TTL boundary it still serves...
  clock->advance(5 * kMillisPerMinute);
  EXPECT_TRUE(chain.factor("FR", clock->now_ms()).has_value());

  // ...but past it the chain goes dark rather than serve stale data.
  clock->advance(1);
  EXPECT_FALSE(chain.factor("FR", clock->now_ms()).has_value());
  EXPECT_EQ(chain.lkg_served(), 2u);

  // Recovery repopulates the cache.
  down = false;
  EXPECT_TRUE(chain.factor("FR", clock->now_ms()).has_value());
  down = true;
  EXPECT_TRUE(chain.factor("FR", clock->now_ms()).has_value());
}

}  // namespace
}  // namespace ceems::emissions
