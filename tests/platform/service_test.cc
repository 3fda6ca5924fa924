#include "platform/service.h"

#include <gtest/gtest.h>

#include <climits>
#include <limits>
#include <vector>

#include "shard/sharded_selector.h"
#include "wal/fault_injection.h"
#include "wal/recovery.h"

namespace easeml::platform {
namespace {

constexpr char kImageProgram[] =
    "{input: {[Tensor[256,256,3]], []}, output: {[Tensor[3]], []}}";
constexpr char kSeriesProgram[] =
    "{input: {[Tensor[10]], [next]}, output: {[Tensor[4]], []}}";

EaseMlService MakeService(uint64_t seed = 1) {
  EaseMlService::Options opts;
  opts.seed = seed;
  opts.selector.seed = seed;
  auto service = EaseMlService::Create(opts);
  EXPECT_TRUE(service.ok());
  return std::move(service).value();
}

TEST(ServiceTest, SubmitJobMatchesTemplates) {
  auto service = MakeService();
  auto job = service.SubmitJob(kImageProgram);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(*job, 0);
  auto candidates = service.Candidates(0);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 8u);  // eight CNNs, no normalization
}

TEST(ServiceTest, WideDynamicRangeExpandsNormalizationCandidates) {
  auto service = MakeService();
  auto job = service.SubmitJob(kImageProgram, /*dynamic_range=*/1e10);
  ASSERT_TRUE(job.ok());
  auto candidates = service.Candidates(*job);
  ASSERT_TRUE(candidates.ok());
  // 8 base models x (1 plain + 4 normalization ks).
  EXPECT_EQ(candidates->size(), 40u);
}

TEST(ServiceTest, SubmitJobRejectsBadProgram) {
  auto service = MakeService();
  EXPECT_FALSE(service.SubmitJob("not a program").ok());
  EXPECT_FALSE(service.SubmitJob(kImageProgram, 0.5).ok());
}

TEST(ServiceTest, CreateRejectsNaNNoisyLabelFraction) {
  EaseMlService::Options opts;
  opts.noisy_label_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(EaseMlService::Create(opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, CreateWithSelectorRejectsNaNNoisyLabelFraction) {
  EaseMlService::Options opts;
  opts.noisy_label_fraction = std::numeric_limits<double>::quiet_NaN();
  auto selector = shard::MakeSelector(opts.selector);
  ASSERT_TRUE(selector.ok());
  EXPECT_EQ(EaseMlService::CreateWithSelector(opts, std::move(selector).value())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, SubmitJobRejectsNaNDynamicRange) {
  auto service = MakeService();
  EXPECT_EQ(service
                .SubmitJob(kImageProgram,
                           std::numeric_limits<double>::quiet_NaN())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.num_jobs(), 0);
}

TEST(ServiceTest, FeedRefusesToTakeAJobPastIntMaxExamples) {
  // Example indices are ints. The refusal comes before anything is
  // allocated or drawn, so the job keeps the one example it had.
  auto service = MakeService();
  ASSERT_TRUE(service.SubmitJob(kImageProgram).ok());
  ASSERT_TRUE(service.Feed(0, 1).ok());
  EXPECT_EQ(service.Feed(0, INT_MAX).code(), StatusCode::kOutOfRange);
  auto examples = service.ListExamples(0);
  ASSERT_TRUE(examples.ok());
  EXPECT_EQ(examples->size(), 1u);
}

TEST(ServiceTest, FeedDrawsThePinnedNoisyLabels) {
  // Recorded from the per-example std::bernoulli_distribution draws the
  // batched threshold draw replaced; it must reproduce them bit for bit.
  auto service = MakeService(1);
  ASSERT_TRUE(service.SubmitJob(kImageProgram).ok());
  ASSERT_TRUE(service.Feed(0, 1000).ok());
  auto examples = service.ListExamples(0);
  ASSERT_TRUE(examples.ok());
  ASSERT_EQ(examples->size(), 1000u);
  int noisy = 0;
  std::vector<int> first_noisy;
  for (size_t i = 0; i < examples->size(); ++i) {
    const Example& e = (*examples)[i];
    EXPECT_EQ(e.index, static_cast<int>(i));
    EXPECT_TRUE(e.enabled);
    if (!e.noisy) continue;
    ++noisy;
    if (first_noisy.size() < 12) first_noisy.push_back(e.index);
  }
  EXPECT_EQ(noisy, 83);
  EXPECT_EQ(first_noisy,
            (std::vector<int>{2, 6, 9, 26, 37, 42, 53, 56, 58, 59, 60, 66}));
}

TEST(ServiceTest, SplitFeedMatchesOneFeed) {
  // Two feeds draw the same flags as one feed of their sum, and the
  // running example count continues across them: the first runs match.
  EaseMlService split = MakeService(17);
  EaseMlService whole = MakeService(17);
  for (EaseMlService* svc : {&split, &whole}) {
    ASSERT_TRUE(svc->SubmitJob(kImageProgram).ok());
  }
  ASSERT_TRUE(split.Feed(0, 600).ok());
  ASSERT_TRUE(split.Feed(0, 400).ok());
  ASSERT_TRUE(whole.Feed(0, 1000).ok());
  auto a = split.ListExamples(0);
  auto b = whole.ListExamples(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].index, (*b)[i].index);
    EXPECT_EQ((*a)[i].enabled, (*b)[i].enabled);
    EXPECT_EQ((*a)[i].noisy, (*b)[i].noisy) << "example " << i;
  }
  auto ta = split.Step();
  auto tb = whole.Step();
  ASSERT_TRUE(ta.ok()) << ta.status().ToString();
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  EXPECT_EQ(ta->accuracy, tb->accuracy);  // exact
  EXPECT_EQ(ta->duration, tb->duration);
}

TEST(ServiceTest, ForcedRecountMatchesTheRunningCount) {
  // A no-op Refine empties the running example count, so the first run
  // recounts with the full pass. The twins must train bit-identically,
  // whether the recount comes after every feed or a feed extends nothing.
  for (const bool between_feeds : {false, true}) {
    SCOPED_TRACE(between_feeds ? "refine between feeds" : "refine last");
    EaseMlService::Options opts;
    opts.seed = 29;
    opts.selector.seed = 29;
    opts.noisy_label_fraction = 0.45;
    auto running = EaseMlService::Create(opts);
    auto recounted = EaseMlService::Create(opts);
    ASSERT_TRUE(running.ok());
    ASSERT_TRUE(recounted.ok());
    for (EaseMlService* svc : {&*running, &*recounted}) {
      ASSERT_TRUE(svc->SubmitJob(kImageProgram).ok());
      ASSERT_TRUE(svc->Feed(0, 700).ok());
      if (svc == &*recounted && between_feeds) {
        ASSERT_TRUE(svc->Refine(0, 0, true).ok());
      }
      ASSERT_TRUE(svc->Feed(0, 333).ok());
      if (svc == &*recounted && !between_feeds) {
        ASSERT_TRUE(svc->Refine(0, 0, true).ok());
      }
    }
    auto a = running->Step();
    auto b = recounted->Step();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->task_id, b->task_id);
    EXPECT_EQ(a->accuracy, b->accuracy);  // exact
    EXPECT_EQ(a->duration, b->duration);
  }
}

TEST(ServiceTest, FeedAndRefineLifecycle) {
  auto service = MakeService();
  ASSERT_TRUE(service.SubmitJob(kImageProgram).ok());
  EXPECT_FALSE(service.Feed(0, 0).ok());
  ASSERT_TRUE(service.Feed(0, 100).ok());
  auto examples = service.ListExamples(0);
  ASSERT_TRUE(examples.ok());
  EXPECT_EQ(examples->size(), 100u);
  // Disable one example.
  ASSERT_TRUE(service.Refine(0, 5, false).ok());
  examples = service.ListExamples(0);
  EXPECT_FALSE((*examples)[5].enabled);
  EXPECT_FALSE(service.Refine(0, 1000, false).ok());
  EXPECT_FALSE(service.Feed(7, 10).ok());  // unknown job
}

TEST(ServiceTest, InferRequiresAFinishedModel) {
  auto service = MakeService();
  ASSERT_TRUE(service.SubmitJob(kImageProgram).ok());
  ASSERT_TRUE(service.Feed(0, 500).ok());
  EXPECT_FALSE(service.Infer(0).ok());  // nothing trained yet
  auto task = service.Step();
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  auto report = service.Infer(0);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->accuracy, 0.0);
  EXPECT_FALSE(report->model_name.empty());
  EXPECT_EQ(report->rounds_served, 1);
}

TEST(ServiceTest, StepSchedulesAcrossJobs) {
  auto service = MakeService(7);
  ASSERT_TRUE(service.SubmitJob(kImageProgram).ok());
  ASSERT_TRUE(service.SubmitJob(kSeriesProgram).ok());
  ASSERT_TRUE(service.Feed(0, 400).ok());
  ASSERT_TRUE(service.Feed(1, 400).ok());
  // The initialization sweep must give both tenants a model quickly.
  ASSERT_TRUE(service.Step().ok());
  ASSERT_TRUE(service.Step().ok());
  EXPECT_TRUE(service.Infer(0).ok());
  EXPECT_TRUE(service.Infer(1).ok());
  EXPECT_GT(service.ClusterTime(), 0.0);
}

TEST(ServiceTest, RunStepsStopsWhenExhausted) {
  auto service = MakeService(3);
  ASSERT_TRUE(service.SubmitJob(kSeriesProgram).ok());  // 4 candidates
  ASSERT_TRUE(service.Feed(0, 300).ok());
  auto taken = service.RunSteps(100);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(*taken, 4);
  EXPECT_TRUE(service.Exhausted());
  EXPECT_FALSE(service.Step().ok());
}

TEST(ServiceTest, BestModelImprovesMonotonically) {
  auto service = MakeService(11);
  ASSERT_TRUE(service.SubmitJob(kImageProgram).ok());
  ASSERT_TRUE(service.Feed(0, 1000).ok());
  double best = 0.0;
  while (!service.Exhausted()) {
    ASSERT_TRUE(service.Step().ok());
    auto report = service.Infer(0);
    ASSERT_TRUE(report.ok());
    EXPECT_GE(report->accuracy, best - 1e-12);
    best = std::max(best, report->accuracy);
  }
}

TEST(ServiceTest, RefiningNoisyLabelsImprovesTraining) {
  // Two services with the same seed; one disables its noisy examples.
  EaseMlService::Options opts;
  opts.seed = 21;
  opts.noisy_label_fraction = 0.5;
  auto raw = EaseMlService::Create(opts);
  auto refined = EaseMlService::Create(opts);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(refined.ok());
  for (auto* svc : {&*raw, &*refined}) {
    ASSERT_TRUE(svc->SubmitJob(kImageProgram).ok());
    ASSERT_TRUE(svc->Feed(0, 100).ok());
  }
  // Refine away noisy labels in the second service... which in this
  // simulated world means effective examples shrink but the noisy discount
  // disappears; the refined service must not be worse on effective volume
  // per clean example. We assert the plumbing: disabling examples changes
  // the candidate outcome deterministically.
  auto examples = refined->ListExamples(0);
  ASSERT_TRUE(examples.ok());
  int disabled = 0;
  for (const auto& e : *examples) {
    if (e.noisy) {
      ASSERT_TRUE(refined->Refine(0, e.index, false).ok());
      ++disabled;
    }
  }
  EXPECT_GT(disabled, 20);  // ~50% of 100
  ASSERT_TRUE(raw->Step().ok());
  ASSERT_TRUE(refined->Step().ok());
  EXPECT_TRUE(raw->Infer(0).ok());
  EXPECT_TRUE(refined->Infer(0).ok());
}

TEST(ServiceTest, RefineAndFeedAfterServingReachTheNextTraining) {
  // A training run's example count is memoized per job, and Refine and
  // Feed must invalidate the memo. Twins with one seed serve one Step each;
  // then one twin changes its examples. Both next pick the same task, so
  // only the example count can make the two runs differ, and it must.
  for (const bool refine : {true, false}) {
    SCOPED_TRACE(refine ? "refine" : "feed");
    EaseMlService untouched = MakeService(13);
    EaseMlService changed = MakeService(13);
    for (EaseMlService* svc : {&untouched, &changed}) {
      ASSERT_TRUE(svc->SubmitJob(kImageProgram).ok());
      ASSERT_TRUE(svc->Feed(0, 400).ok());
      ASSERT_TRUE(svc->Step().ok());
    }
    if (refine) {
      for (int i = 0; i < 400; i += 2) {
        ASSERT_TRUE(changed.Refine(0, i, false).ok());
      }
    } else {
      ASSERT_TRUE(changed.Feed(0, 1200).ok());
    }
    auto twin = untouched.Step();
    auto task = changed.Step();
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    ASSERT_TRUE(task.ok()) << task.status().ToString();
    EXPECT_EQ(task->task_id, twin->task_id);
    EXPECT_NE(task->accuracy, twin->accuracy);
    EXPECT_NE(task->duration, twin->duration);  // linear in the count
  }
}

TEST(ServiceTest, ShardedEngineReplaysSequentialServiceBitIdentically) {
  // The num_shards service option swaps the selector engine under the
  // whole platform stack (task pool, async executor, RunAsync drain); the
  // end-to-end outcome must not change in any digit.
  auto run = [](int num_shards) {
    EaseMlService::Options opts;
    opts.seed = 5;
    opts.selector.seed = 5;
    opts.selector.num_devices = 3;
    opts.selector.num_shards = num_shards;
    auto service = EaseMlService::Create(opts);
    EXPECT_TRUE(service.ok());
    for (int j = 0; j < 6; ++j) {
      EXPECT_TRUE(service->SubmitJob(kImageProgram).ok());
      EXPECT_TRUE(service->Feed(j, 60 + 13 * j).ok());
    }
    auto report = service->RunAsync(/*num_workers=*/1);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::vector<InferReport> infers;
    for (int j = 0; j < 6; ++j) {
      auto infer = service->Infer(j);
      EXPECT_TRUE(infer.ok());
      infers.push_back(*infer);
    }
    return infers;
  };
  const std::vector<InferReport> sequential = run(1);
  for (int shards : {2, 5}) {
    const std::vector<InferReport> sharded = run(shards);
    ASSERT_EQ(sequential.size(), sharded.size());
    for (size_t j = 0; j < sequential.size(); ++j) {
      EXPECT_EQ(sequential[j].model_name, sharded[j].model_name);
      EXPECT_EQ(sequential[j].accuracy, sharded[j].accuracy);  // exact
      EXPECT_EQ(sequential[j].rounds_served, sharded[j].rounds_served);
    }
  }
}

TEST(ServiceTest, WalBackedServiceTrafficIsRecoverable) {
  // The full platform stack (DSL parse, template match, Step scheduling)
  // running over a WAL-wired selector: every Next/Report the service
  // drives lands in the log, and after a simulated kill OpenOrRecover
  // rebuilds a selector with the same fleet.
  wal::FaultInjectingFileSystem fs;
  core::SelectorOptions sel_opts;
  sel_opts.seed = 5;
  {
    auto recovered = wal::OpenOrRecover(&fs, "/svc", sel_opts);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EaseMlService::Options opts;
    opts.seed = 5;
    opts.selector = sel_opts;
    {
      auto service = EaseMlService::CreateWithSelector(
          opts, std::move(recovered->selector));
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      ASSERT_TRUE(service->SubmitJob(kImageProgram).ok());
      ASSERT_TRUE(service->SubmitJob(kSeriesProgram).ok());
      ASSERT_TRUE(service->Feed(0, 200).ok());
      ASSERT_TRUE(service->Feed(1, 200).ok());
      auto taken = service->RunSteps(10);
      ASSERT_TRUE(taken.ok()) << taken.status().ToString();
      EXPECT_EQ(*taken, 10);
    }
    // Selector (service) destroyed before the WAL it writes to; the WAL
    // handle closes when `recovered` leaves scope — a process kill as far
    // as the in-memory filesystem is concerned.
  }
  auto reopened = wal::OpenOrRecover(&fs, "/svc", sel_opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->stats.used_checkpoint);
  EXPECT_GT(reopened->stats.replayed_records, 0);
  EXPECT_EQ(reopened->selector->num_tenants(), 2);
  EXPECT_TRUE(reopened->selector->ValidateIndex().ok());
  auto state = reopened->selector->CaptureDurableState();
  ASSERT_TRUE(state.ok());
  // Step() reports synchronously, so no ticket was open at the kill.
  EXPECT_TRUE(state->in_flight.empty());
}

}  // namespace
}  // namespace easeml::platform
