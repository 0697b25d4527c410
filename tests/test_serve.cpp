// Tests for the serving layer: queue admission/backpressure, SLA-priority
// ordering, batch-formation boundaries (size-1 timeout flush, full-batch
// flush, flush deadline counted from admission), deadline expiry, workers
// forming their own batches, metrics, a TEST_P sweep over SLA mixes, and
// a multi-producer smoke test asserting no request is lost or
// duplicated. Timing assertions are deliberately loose: CI may
// run on one core, so tests check ordering and accounting, not speed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <latch>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace everest::serve {
namespace {

PendingRequest make_pending(const std::string& kernel, SlaClass sla,
                            std::uint64_t id = 0) {
  PendingRequest pending;
  pending.request.id = id;
  pending.request.kernel = kernel;
  pending.request.sla = sla;
  pending.request.enqueue_time = Clock::now();
  return pending;
}

/// A cheap deterministic endpoint for server tests: value = seed % 1000,
/// so responses are verifiable without running the heavy app kernels.
Endpoint test_endpoint(const std::string& kernel = "test_kernel") {
  Endpoint ep;
  ep.kernel = kernel;
  compiler::Variant v;
  v.id = kernel + "-cpu";
  v.kernel = kernel;
  v.target = compiler::TargetKind::kCpu;
  v.latency_us = 50.0;
  v.energy_uj = 100.0;
  ep.variants = {v};
  ep.handler = [](const Batch& batch, std::vector<double>* values) {
    values->clear();
    for (const PendingRequest& pending : batch.requests) {
      values->push_back(static_cast<double>(pending.request.seed % 1000));
    }
    return OkStatus();
  };
  return ep;
}

// ---------------------------------------------------------------- queue

TEST(RequestQueue, AdmitsUpToCapacityThenRejects) {
  RequestQueue queue(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput)).ok());
  }
  // Admission control: 5th and 6th bounce with RESOURCE_EXHAUSTED.
  for (int i = 0; i < 2; ++i) {
    Status st = queue.push(make_pending("k", SlaClass::kThroughput));
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(queue.size(), 4u);
  // Popping one frees one admission slot.
  EXPECT_TRUE(
      queue.pop(Clock::now() + std::chrono::microseconds(1000)).has_value());
  EXPECT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput)).ok());
}

TEST(RequestQueue, RejectionNamesTheKernel) {
  RequestQueue queue(2);
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput)).ok());
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput)).ok());
  // A short (inline) and a long (heap) kernel name: the message views
  // the name inside the rejected request itself.
  for (const std::string kernel : {"sgemm", "ptdr_route_sampling_kernel"}) {
    const Status st =
        queue.push(make_pending(kernel, SlaClass::kLatencyCritical));
    ASSERT_EQ(st.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(st.message(),
              "queue full (2 pending), request '" + kernel + "' rejected");
  }
}

TEST(RequestQueue, LatencyCriticalPopsFirst) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput, 1)).ok());
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput, 2)).ok());
  ASSERT_TRUE(
      queue.push(make_pending("k", SlaClass::kLatencyCritical, 3)).ok());
  auto first = queue.pop(Clock::now() + std::chrono::microseconds(1000));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request.id, 3u);  // LC lane jumps the TP backlog
  auto second = queue.pop(Clock::now() + std::chrono::microseconds(1000));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request.id, 1u);  // then FIFO within the TP lane
}

TEST(RequestQueue, PopCompatibleMatchesKernelAndClass) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.push(make_pending("a", SlaClass::kThroughput, 1)).ok());
  ASSERT_TRUE(queue.push(make_pending("b", SlaClass::kThroughput, 2)).ok());
  ASSERT_TRUE(
      queue.push(make_pending("b", SlaClass::kLatencyCritical, 3)).ok());
  EXPECT_FALSE(
      queue.pop_compatible("c", SlaClass::kThroughput, Clock::now())
          .has_value());
  auto hit = queue.pop_compatible("b", SlaClass::kThroughput, Clock::now());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->request.id, 2u);  // not the LC "b" request
  EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueue, CloseRejectsProducersAndUnblocksConsumers) {
  RequestQueue queue(4);
  queue.close();
  EXPECT_EQ(queue.push(make_pending("k", SlaClass::kThroughput)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(
      queue.pop(Clock::now() + std::chrono::microseconds(100)).has_value());
}

TEST(RequestQueue, CloseWakesBlockedPopCompatible) {
  RequestQueue queue(4);
  std::thread closer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
  });
  // Only an incompatible request arrives; the wait ends on close(), long
  // before its deadline.
  ASSERT_TRUE(queue.push(make_pending("other", SlaClass::kThroughput)).ok());
  const auto start = Clock::now();
  EXPECT_FALSE(queue
                   .pop_compatible("k", SlaClass::kThroughput,
                                   start + std::chrono::seconds(30))
                   .has_value());
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(10));
  closer.join();
}

TEST(TwoLaneQueue, PopAllDrainsPriorityLaneFirstInPopOrder) {
  // The same interleaved pushes into two queues: one drained by a run of
  // pop() calls, the other by one pop_all().
  const std::vector<std::pair<int, int>> pushes = {
      {10, 1}, {11, 1}, {20, 0}, {12, 1}, {21, 0}, {13, 1}, {22, 0}};
  TwoLaneQueue<int> by_pop(16);
  TwoLaneQueue<int> by_pop_all(16);
  for (const auto& [item, lane] : pushes) {
    ASSERT_TRUE(by_pop.push(item, lane, "item", "int").ok());
    ASSERT_TRUE(by_pop_all.push(item, lane, "item", "int").ok());
  }
  std::vector<int> popped;
  while (auto item = by_pop.pop(Clock::now())) popped.push_back(*item);

  std::vector<int> drained = {-1};  // pop_all appends after what is there
  EXPECT_EQ(by_pop_all.pop_all(Clock::now(), &drained), pushes.size());
  EXPECT_EQ(drained, (std::vector<int>{-1, 20, 21, 22, 10, 11, 12, 13}));
  drained.erase(drained.begin());
  EXPECT_EQ(drained, popped);
  EXPECT_EQ(by_pop_all.size(), 0u);
}

std::vector<int> pop_every(TwoLaneQueue<int>& queue) {
  std::vector<int> out;
  while (auto item = queue.pop(Clock::now())) out.push_back(*item);
  return out;
}

TEST(TwoLaneQueue, PopAllAfterPartialPopsKeepsLaneOrder) {
  TwoLaneQueue<int> queue(16);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.push(10 + i, 1, "item", "int").ok());
  }
  ASSERT_EQ(*queue.pop(Clock::now()), 10);
  ASSERT_EQ(*queue.pop(Clock::now()), 11);
  // Popped prefix in the bulk lane, empty out: items move, in order.
  std::vector<int> out;
  EXPECT_EQ(queue.pop_all(Clock::now(), &out), 4u);
  EXPECT_EQ(out, (std::vector<int>{12, 13, 14, 15}));

  // Non-empty out with only the bulk lane holding items: appended.
  ASSERT_TRUE(queue.push(16, 1, "item", "int").ok());
  EXPECT_EQ(queue.pop_all(Clock::now(), &out), 1u);
  EXPECT_EQ(out, (std::vector<int>{12, 13, 14, 15, 16}));

  // Priority lane non-empty, empty out: lane 0 first, even after a pop
  // took from lane 0.
  out.clear();
  for (const auto& [item, lane] : std::vector<std::pair<int, int>>{
           {1, 1}, {2, 1}, {20, 0}, {21, 0}, {3, 1}, {22, 0}}) {
    ASSERT_TRUE(queue.push(item, lane, "item", "int").ok());
  }
  ASSERT_EQ(*queue.pop(Clock::now()), 20);
  EXPECT_EQ(queue.pop_all(Clock::now(), &out), 5u);
  EXPECT_EQ(out, (std::vector<int>{21, 22, 1, 2, 3}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(TwoLaneQueue, BulkPopAllSwapsBuffersWithAnEmptyBatch) {
  TwoLaneQueue<int> queue(64);
  std::vector<int> batch;
  batch.reserve(32);
  const int* const mine = batch.data();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.push(i, 1, "item", "int").ok());
  }
  EXPECT_EQ(queue.pop_all(Clock::now(), &batch), 3u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  // The queue now fills the buffer the batch handed over; clearing the
  // batch and draining again trades the two buffers back.
  EXPECT_NE(batch.data(), mine);
  batch.clear();
  for (int i = 3; i < 5; ++i) {
    ASSERT_TRUE(queue.push(i, 1, "item", "int").ok());
  }
  EXPECT_EQ(queue.pop_all(Clock::now(), &batch), 2u);
  EXPECT_EQ(batch, (std::vector<int>{3, 4}));
  EXPECT_EQ(batch.data(), mine);
}

TEST(TwoLaneQueue, PopStaysFifoAcrossCompaction) {
  TwoLaneQueue<int> queue(256);
  std::vector<int> expected;
  std::vector<int> popped;
  int next = 0;
  // Interleaved pushes and pops: the popped prefix passes half the lane
  // (compaction) many times over with items still queued behind it.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(queue.push(next, 1, "item", "int").ok());
      expected.push_back(next++);
    }
    for (int i = 0; i < 5; ++i) popped.push_back(*queue.pop(Clock::now()));
  }
  for (int item : pop_every(queue)) popped.push_back(item);
  EXPECT_EQ(popped, expected);
}

TEST(TwoLaneQueue, CapacityCountsLiveItemsNotPoppedShells) {
  TwoLaneQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.push(i, 1, "item", "int").ok());
  }
  EXPECT_EQ(queue.push(99, 1, "item", "int").code(),
            StatusCode::kResourceExhausted);
  // One pop leaves a moved-from shell before the lane head (not yet
  // compacted: it is the smaller part); it must not hold a slot.
  ASSERT_EQ(*queue.pop(Clock::now()), 0);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_TRUE(queue.push(4, 1, "item", "int").ok());
  EXPECT_EQ(queue.push(99, 1, "item", "int").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(pop_every(queue), (std::vector<int>{1, 2, 3, 4}));
}

TEST(RequestQueue, PopCompatibleRemovesFromTheMiddle) {
  RequestQueue queue(8);
  for (const auto& [kernel, id] : std::vector<std::pair<std::string, int>>{
           {"a", 1}, {"a", 2}, {"b", 3}, {"a", 4}, {"b", 5}}) {
    ASSERT_TRUE(queue.push(make_pending(kernel, SlaClass::kThroughput,
                                        static_cast<std::uint64_t>(id)))
                    .ok());
  }
  ASSERT_EQ(queue.pop(Clock::now())->request.id, 1u);  // popped prefix
  auto hit = queue.pop_compatible("b", SlaClass::kThroughput, Clock::now());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->request.id, 3u);
  std::vector<std::uint64_t> rest;
  while (auto p = queue.pop(Clock::now())) rest.push_back(p->request.id);
  EXPECT_EQ(rest, (std::vector<std::uint64_t>{2, 4, 5}));
}

TEST(TwoLaneQueue, PopAllPastDeadlineReturnsZero) {
  TwoLaneQueue<int> queue(4);
  std::vector<int> out;
  const auto start = Clock::now();
  EXPECT_EQ(queue.pop_all(start - std::chrono::milliseconds(1), &out), 0u);
  EXPECT_EQ(queue.pop_all(start + std::chrono::milliseconds(5), &out), 0u);
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(5));
  EXPECT_TRUE(out.empty());
}

TEST(TwoLaneQueue, CloseWakesBlockedPopAll) {
  TwoLaneQueue<int> queue(4);
  std::thread closer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
  });
  std::vector<int> out;
  const auto start = Clock::now();
  // No deadline at all: only close() can end this wait.
  EXPECT_EQ(queue.pop_all(Clock::time_point::max(), &out), 0u);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(10));
  closer.join();
}

TEST(TwoLaneQueue, WakeEndsOnePopAllWithoutClosing) {
  TwoLaneQueue<int> queue(4);
  std::thread waker([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.wake();
  });
  std::vector<int> out;
  EXPECT_EQ(queue.pop_all(Clock::time_point::max(), &out), 0u);
  waker.join();
  // The wake-up was consumed and admission never stopped.
  EXPECT_FALSE(queue.closed());
  ASSERT_TRUE(queue.push(7, 1, "item", "int").ok());
  EXPECT_EQ(queue.pop_all(Clock::time_point::max(), &out), 1u);
  EXPECT_EQ(out, std::vector<int>{7});
  // A wake() with no waiter ends the next wait instead of being lost.
  queue.wake();
  EXPECT_EQ(queue.pop_all(Clock::time_point::max(), &out), 0u);
}

// -------------------------------------------------------------- batcher

TEST(Batcher, FullBatchFlushesAtMaxSize) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_wait = std::chrono::microseconds(200000);  // generous
  Batcher batcher(&queue, policy);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput,
                                        static_cast<std::uint64_t>(i)))
                    .ok());
  }
  Batch batch;
  ASSERT_TRUE(batcher.next_batch(&batch));
  // Enough compatible requests queued: flushes at max_batch immediately,
  // long before max_wait.
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.kernel, "k");
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(Batcher, LoneRequestFlushesAtSizeOneOnTimeout) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait = std::chrono::microseconds(2000);
  Batcher batcher(&queue, policy);
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput)).ok());
  Batch batch;
  const auto start = Clock::now();
  ASSERT_TRUE(batcher.next_batch(&batch));
  const auto waited = Clock::now() - start;
  EXPECT_EQ(batch.size(), 1u);
  // It must have waited out the policy (>= max_wait, with slack for a
  // loaded machine on the upper side which we don't bound).
  EXPECT_GE(waited, std::chrono::microseconds(1500));
}

TEST(Batcher, DoesNotMixKernelsOrClasses) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.lc_max_batch = 2;
  policy.max_wait = std::chrono::microseconds(1000);
  Batcher batcher(&queue, policy);
  ASSERT_TRUE(queue.push(make_pending("a", SlaClass::kThroughput, 1)).ok());
  ASSERT_TRUE(queue.push(make_pending("b", SlaClass::kThroughput, 2)).ok());
  ASSERT_TRUE(queue.push(make_pending("a", SlaClass::kThroughput, 3)).ok());
  Batch batch;
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.kernel, "a");
  EXPECT_EQ(batch.size(), 2u);  // ids 1 and 3; "b" stays queued
  for (const PendingRequest& pending : batch.requests) {
    EXPECT_EQ(pending.request.kernel, "a");
  }
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.kernel, "b");
  EXPECT_EQ(batch.size(), 1u);
}

TEST(Batcher, LatencyCriticalCapIsSmaller) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.lc_max_batch = 2;
  policy.max_wait = std::chrono::microseconds(200000);
  Batcher batcher(&queue, policy);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        queue.push(make_pending("k", SlaClass::kLatencyCritical)).ok());
  }
  Batch batch;
  ASSERT_TRUE(batcher.next_batch(&batch));
  EXPECT_EQ(batch.sla, SlaClass::kLatencyCritical);
  EXPECT_EQ(batch.size(), 2u);  // capped at lc_max_batch, not max_batch
}

TEST(Batcher, ArrivalDuringFillWaitJoinsAndFullBatchReturnsEarly) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.max_wait = std::chrono::milliseconds(200);
  Batcher batcher(&queue, policy);
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput, 1)).ok());
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput, 2)).ok());
  });
  Batch batch;
  const auto start = Clock::now();
  ASSERT_TRUE(batcher.next_batch(&batch));
  const auto waited = Clock::now() - start;
  producer.join();
  // The late arrival joined the open batch, and filling it flushed the
  // batch on the spot instead of at max_wait.
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.requests[0].request.id, 1u);
  EXPECT_EQ(batch.requests[1].request.id, 2u);
  EXPECT_LT(waited, std::chrono::milliseconds(150));
}

TEST(Batcher, HeadQueuedPastMaxWaitFlushesWithWhatIsQueued) {
  RequestQueue queue(32);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait = std::chrono::milliseconds(200);
  Batcher batcher(&queue, policy);
  // The head was admitted a second ago (it queued behind a busy worker):
  // its flush deadline, counted from admission, has long passed.
  PendingRequest head = make_pending("k", SlaClass::kThroughput, 1);
  head.request.enqueue_time = Clock::now() - std::chrono::seconds(1);
  ASSERT_TRUE(queue.push(std::move(head)).ok());
  ASSERT_TRUE(queue.push(make_pending("k", SlaClass::kThroughput, 2)).ok());
  Batch batch;
  const auto start = Clock::now();
  ASSERT_TRUE(batcher.next_batch(&batch));
  const auto waited = Clock::now() - start;
  // The queued compatible request joins; no fill wait follows.
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.requests[0].request.id, 1u);
  EXPECT_EQ(batch.requests[1].request.id, 2u);
  EXPECT_LT(waited, std::chrono::milliseconds(150));
}

// -------------------------------------------------------------- metrics

TEST(ServingMetrics, SnapshotAggregates) {
  ServingMetrics metrics;
  metrics.record_submitted();
  metrics.record_submitted();
  metrics.record_admitted(3);
  metrics.record_rejected();
  metrics.record_batch(4, 1000.0);
  metrics.record_batch(2, 500.0);
  for (int i = 1; i <= 100; ++i) {
    metrics.record_completion(SlaClass::kThroughput, i * 10.0);
  }
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.completed, 100u);
  EXPECT_DOUBLE_EQ(snap.rejection_rate(), 0.5);
  EXPECT_NEAR(snap.p50_us, 505.0, 10.0);
  EXPECT_NEAR(snap.p99_us, 991.0, 10.0);
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_DOUBLE_EQ(snap.mean_batch_size, 3.0);
  EXPECT_EQ(snap.batch_histogram.at(4), 1u);
  EXPECT_EQ(snap.max_queue_depth, 3u);
  metrics.reset();
  EXPECT_EQ(metrics.snapshot().submitted, 0u);
}

TEST(ServingMetrics, SnapshotLatenciesAreBitIdenticalToThePerCallReference) {
  ServingMetrics metrics;
  std::vector<double> lc, tp;
  std::uint64_t state = 12345;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double latency = static_cast<double>(state >> 40) / 97.0;
    const bool is_lc = (state >> 20) % 3 == 0;
    (is_lc ? lc : tp).push_back(latency);
    metrics.record_completion(
        is_lc ? SlaClass::kLatencyCritical : SlaClass::kThroughput, latency);
  }
  // The reference: percentile() and mean_of() over the unsorted arrival
  // order, LC samples first.
  std::vector<double> all = lc;
  all.insert(all.end(), tp.begin(), tp.end());
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.p50_us, percentile(all, 50.0));
  EXPECT_EQ(snap.p99_us, percentile(all, 99.0));
  EXPECT_EQ(snap.mean_us, mean_of(all));
  EXPECT_EQ(snap.max_us, *std::max_element(all.begin(), all.end()));
  EXPECT_EQ(snap.lc_p99_us, percentile(lc, 99.0));
  EXPECT_EQ(snap.tp_p99_us, percentile(tp, 99.0));
}

// --------------------------------------------------------------- server

TEST(Server, RejectsBadConfigurations) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  Server server(options, &kb);
  EXPECT_EQ(server.start().code(), StatusCode::kFailedPrecondition);  // empty
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  EXPECT_EQ(server.register_endpoint(test_endpoint()).code(),
            StatusCode::kAlreadyExists);
  Request before;
  before.kernel = "test_kernel";
  EXPECT_EQ(server.submit(before, nullptr).code(),
            StatusCode::kFailedPrecondition);  // not started
  ASSERT_TRUE(server.start().ok());
  Request unknown;
  unknown.kernel = "nope";
  EXPECT_EQ(server.submit(unknown, nullptr).code(), StatusCode::kNotFound);
  server.stop();
}

TEST(Server, ServesRequestsEndToEnd) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.batch.max_batch = 4;
  options.batch.max_wait = std::chrono::microseconds(500);
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::vector<Response> responses;
  for (std::uint64_t i = 0; i < 20; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.seed = 100 + i;
    ASSERT_TRUE(server
                    .submit(request,
                            [&](const Response& response) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses.push_back(response);
                            })
                    .ok());
  }
  server.drain();
  server.stop();

  ASSERT_EQ(responses.size(), 20u);
  for (const Response& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.to_string();
    EXPECT_GE(response.value, 100.0);  // seed % 1000 for seeds 100..119
    EXPECT_LE(response.value, 119.0);
    EXPECT_GE(response.batch_size, 1u);
    EXPECT_GT(response.latency_us, 0.0);
    EXPECT_EQ(response.variant_id, "test_kernel-cpu");
  }
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, 20u);
  EXPECT_EQ(snap.rejected, 0u);
  // The measured service times must have reached the knowledge base
  // (Fig. 2 feedback loop) — one observation per dispatched batch.
  EXPECT_EQ(kb.observation_count("test_kernel", "test_kernel-cpu"),
            static_cast<int>(snap.batches));
}

TEST(Server, ExpiredRequestsAreDroppedNotExecuted) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::vector<Status> statuses;
  Request request;
  request.kernel = "test_kernel";
  request.deadline = Clock::now() - std::chrono::milliseconds(1);  // past
  ASSERT_TRUE(server
                  .submit(request,
                          [&](const Response& response) {
                            std::lock_guard<std::mutex> lock(mu);
                            statuses.push_back(response.status);
                          })
                  .ok());
  server.drain();
  server.stop();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.metrics().snapshot().expired, 1u);
  EXPECT_EQ(server.metrics().snapshot().completed, 0u);
}

TEST(Server, AdmissionControlBouncesOverload) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.queue_capacity = 2;
  options.worker_threads = 1;
  // Slow handler so the queue genuinely fills.
  Server server(options, &kb);
  Endpoint slow = test_endpoint();
  slow.handler = [](const Batch& batch, std::vector<double>* values) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    values->assign(batch.size(), 1.0);
    return OkStatus();
  };
  ASSERT_TRUE(server.register_endpoint(std::move(slow)).ok());
  ASSERT_TRUE(server.start().ok());

  int rejected = 0;
  std::atomic<int> delivered{0};
  for (int i = 0; i < 40; ++i) {
    Request request;
    request.kernel = "test_kernel";
    const Status status =
        server.submit(request, [&](const Response&) { delivered++; });
    if (status.code() == StatusCode::kResourceExhausted) ++rejected;
  }
  server.drain();
  server.stop();
  EXPECT_GT(rejected, 0);  // bounded queue pushed back
  // Every admitted request got exactly one response.
  EXPECT_EQ(delivered.load(), 40 - rejected);
}

// ------------------------------------------------ SLA-mix TEST_P sweep

class SlaMixTest : public ::testing::TestWithParam<double> {};

TEST_P(SlaMixTest, AllRequestsAccountedAtEveryMix) {
  const double lc_fraction = GetParam();
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.queue_capacity = 512;
  options.batch.max_batch = 8;
  options.batch.max_wait = std::chrono::microseconds(300);
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  WorkloadSpec spec;
  spec.kernels = {"test_kernel"};
  spec.offered_rps = 2000.0;
  spec.duration = std::chrono::milliseconds(100);
  spec.lc_fraction = lc_fraction;
  spec.lc_deadline_ms = 0.0;  // no expiry: accounting must be exact
  spec.tp_deadline_ms = 0.0;
  spec.seed = 7;
  const LoadReport report = run_open_loop(server, spec);
  server.stop();

  EXPECT_GT(report.offered, 0u);
  // Conservation: every offered request is exactly one of
  // completed / rejected / failed.
  EXPECT_EQ(report.completed + report.rejected + report.failed,
            report.offered);
  EXPECT_EQ(report.expired, 0u);
  if (lc_fraction == 0.0) {
    EXPECT_TRUE(report.latencies_us[0].empty());
  }
  if (lc_fraction == 1.0) {
    EXPECT_TRUE(report.latencies_us[1].empty());
  }
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, report.completed);
  EXPECT_EQ(snap.rejected, report.rejected);
}

INSTANTIATE_TEST_SUITE_P(Mixes, SlaMixTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

// ------------------------------------------- multi-producer smoke test

TEST(Server, EightProducersNoLostOrDuplicatedRequests) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  options.batch.max_batch = 16;
  options.batch.max_wait = std::chrono::microseconds(200);
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 100;
  std::mutex mu;
  std::multiset<std::uint64_t> seen_seeds;
  std::atomic<int> admitted{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Request request;
        request.kernel = "test_kernel";
        // Unique seed encodes (producer, index) so duplicates are visible.
        request.seed = static_cast<std::uint64_t>(p) * 1000000 +
                       static_cast<std::uint64_t>(i);
        Status status = server.submit(request, [&](const Response& response) {
          std::lock_guard<std::mutex> lock(mu);
          seen_seeds.insert(response.id);
        });
        if (status.ok()) admitted.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  server.drain();
  server.stop();

  // No losses: every admitted request completed. Capacity 4096 > 800, so
  // nothing should have been rejected either.
  EXPECT_EQ(admitted.load(), kProducers * kPerProducer);
  ASSERT_EQ(seen_seeds.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  // No duplicates: server-assigned ids are unique.
  std::set<std::uint64_t> unique_ids(seen_seeds.begin(), seen_seeds.end());
  EXPECT_EQ(unique_ids.size(), seen_seeds.size());
}

// ------------------------------------- graceful degradation (breakers)

/// test_endpoint() plus a faster FPGA variant, so selection prefers the
/// FPGA until its breaker trips.
Endpoint dual_variant_endpoint(const std::string& kernel = "dual_kernel") {
  Endpoint ep = test_endpoint(kernel);
  compiler::Variant fpga;
  fpga.id = kernel + "-fpga";
  fpga.kernel = kernel;
  fpga.target = compiler::TargetKind::kFpga;
  fpga.latency_us = 10.0;
  fpga.energy_uj = 20.0;
  ep.variants.push_back(std::move(fpga));
  return ep;
}

TEST(Server, TrippedBreakerDegradesToCpuButKeepsServing) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.breaker.failure_threshold = 3;
  options.breaker.open_cooldown_us = 1e12;  // no half-open probe in-test
  // Every batch routed to the FPGA variant fails (dead slot model); the
  // CPU variant keeps working.
  options.fault_injector = [](const Batch&, const compiler::Variant& v) {
    if (v.target == compiler::TargetKind::kFpga) {
      return Unavailable("injected: FPGA slot failed");
    }
    return OkStatus();
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(dual_variant_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::vector<Response> responses;
  for (std::uint64_t i = 0; i < 10; ++i) {
    Request request;
    request.kernel = "dual_kernel";
    request.seed = i;
    ASSERT_TRUE(server
                    .submit(request,
                            [&](const Response& response) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses.push_back(response);
                            })
                    .ok());
    server.drain();  // one request per batch: deterministic breaker path
  }
  const bool degraded_mode = server.degraded();
  const int open = server.breakers().open_count("dual_kernel");
  server.stop();

  ASSERT_EQ(responses.size(), 10u);
  std::size_t failed = 0;
  std::size_t degraded_ok = 0;
  for (const Response& response : responses) {
    if (!response.status.ok()) {
      ++failed;
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    } else if (response.degraded) {
      ++degraded_ok;
      EXPECT_EQ(response.variant_id, "dual_kernel-cpu");  // FPGA withheld
    }
  }
  // Three failures trip the FPGA breaker; everything after is served
  // successfully on the CPU fallback, flagged degraded.
  EXPECT_EQ(failed, 3u);
  EXPECT_EQ(degraded_ok, 7u);
  EXPECT_TRUE(degraded_mode);
  EXPECT_EQ(open, 1);
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, 7u);
  EXPECT_EQ(snap.failed, 3u);
  EXPECT_EQ(snap.degraded, 7u);
}

TEST(Server, AllVariantsTrippedReturnsUnavailable) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.open_cooldown_us = 1e12;
  options.fault_injector = [](const Batch&, const compiler::Variant&) {
    return Unavailable("injected: everything is on fire");
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::vector<Status> statuses;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.sla = SlaClass::kLatencyCritical;  // not shed at admission
    ASSERT_TRUE(server
                    .submit(request,
                            [&](const Response& response) {
                              std::lock_guard<std::mutex> lock(mu);
                              statuses.push_back(response.status);
                            })
                    .ok());
    server.drain();
  }
  server.stop();

  ASSERT_EQ(statuses.size(), 6u);
  // First two fail on the variant itself; once its breaker opens, the only
  // variant is withheld and requests answer UNAVAILABLE without running.
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.failed, 2u);
  EXPECT_EQ(snap.unavailable, 4u);
  EXPECT_EQ(snap.completed, 0u);
}

TEST(Server, DegradedModeShedsThroughputClassAtAdmission) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.open_cooldown_us = 1e12;
  options.degraded_shed_fill = 0.0;  // shed all TP traffic while degraded
  options.fault_injector = [](const Batch&, const compiler::Variant&) {
    return Unavailable("injected");
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  // One failing request trips the single variant's breaker.
  Request tripper;
  tripper.kernel = "test_kernel";
  tripper.sla = SlaClass::kLatencyCritical;
  ASSERT_TRUE(server.submit(tripper, nullptr).ok());
  server.drain();
  ASSERT_TRUE(server.degraded());

  // Throughput-class traffic now bounces at the front door...
  Request bulk;
  bulk.kernel = "test_kernel";
  bulk.sla = SlaClass::kThroughput;
  EXPECT_EQ(server.submit(bulk, nullptr).code(), StatusCode::kUnavailable);
  // ...while latency-critical traffic is still admitted.
  Request urgent;
  urgent.kernel = "test_kernel";
  urgent.sla = SlaClass::kLatencyCritical;
  EXPECT_TRUE(server.submit(urgent, nullptr).ok());
  server.drain();
  server.stop();
  EXPECT_GE(server.metrics().snapshot().unavailable, 2u);
}

TEST(Server, BackpressureKeepsOneBatchInFlightPerWorker) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.batch.max_batch = 1;
  Server server(options, &kb);
  std::latch gate(1);
  Endpoint endpoint = test_endpoint();
  endpoint.handler = [&gate, inner = endpoint.handler](
                         const Batch& batch, std::vector<double>* values) {
    gate.wait();
    return inner(batch, values);
  };
  ASSERT_TRUE(server.register_endpoint(endpoint).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::multiset<std::uint64_t> replied;
  for (std::uint64_t i = 0; i < 10; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.seed = i;
    ASSERT_TRUE(server
                    .submit(request,
                            [&](const Response& response) {
                              std::lock_guard<std::mutex> lock(mu);
                              replied.insert(response.id);
                            })
                    .ok());
  }
  // One batch blocks the only worker, which forms no other batch until
  // it returns, so the other 9 stay in the admission queue.
  const auto until = Clock::now() + std::chrono::seconds(10);
  while (server.queue_depth() != 9 && Clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.queue_depth(), 9u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.queue_depth(), 9u);  // settled: no second batch left

  gate.count_down();
  server.drain();
  server.stop();
  EXPECT_EQ(replied.size(), 10u);
  EXPECT_EQ(std::set<std::uint64_t>(replied.begin(), replied.end()).size(),
            10u);  // every request answered exactly once
  EXPECT_EQ(server.metrics().snapshot().completed, 10u);
}

/// test_endpoint() whose handler blocks on `gate` for a batch holding a
/// request with seed `blocked_seed`, raising `entered` first.
Endpoint gated_endpoint(std::latch* gate, std::atomic<bool>* entered,
                        std::uint64_t blocked_seed) {
  Endpoint endpoint = test_endpoint();
  endpoint.handler = [gate, entered, blocked_seed,
                      inner = endpoint.handler](const Batch& batch,
                                                std::vector<double>* values) {
    for (const PendingRequest& pending : batch.requests) {
      if (pending.request.seed == blocked_seed) {
        entered->store(true);
        gate->wait();
      }
    }
    return inner(batch, values);
  };
  return endpoint;
}

/// Polls `done` for up to 10 s (CI machines stall); returns its value.
bool wait_for(const std::function<bool()>& done) {
  const auto until = Clock::now() + std::chrono::seconds(10);
  while (!done() && Clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(Server, SecondWorkerFormsAndRunsABatchWhileOneHandlerBlocks) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.batch.max_batch = 1;
  Server server(options, &kb);
  std::latch gate(1);
  std::atomic<bool> entered{false};
  ASSERT_TRUE(
      server.register_endpoint(gated_endpoint(&gate, &entered, 0)).ok());
  ASSERT_TRUE(server.start().ok());

  std::atomic<int> replies{0};
  std::atomic<bool> second_ok{false};
  Request blocked;
  blocked.kernel = "test_kernel";
  blocked.seed = 0;
  ASSERT_TRUE(
      server.submit(blocked, [&](const Response&) { replies.fetch_add(1); })
          .ok());
  ASSERT_TRUE(wait_for([&] { return entered.load(); }));

  Request other;
  other.kernel = "test_kernel";
  other.seed = 7;
  ASSERT_TRUE(server
                  .submit(other,
                          [&](const Response& response) {
                            second_ok.store(response.status.ok() &&
                                            response.value == 7.0);
                            replies.fetch_add(1);
                          })
                  .ok());
  // The second request is answered while the first handler still blocks:
  // the idle worker formed and ran its batch on its own.
  EXPECT_TRUE(wait_for([&] { return replies.load() == 1; }));
  EXPECT_TRUE(second_ok.load());
  EXPECT_EQ(server.metrics().snapshot().completed, 1u);

  gate.count_down();
  server.stop();
  EXPECT_EQ(replies.load(), 2);
  EXPECT_EQ(server.metrics().snapshot().completed, 2u);
}

TEST(Server, StopReturnsWithWorkersInFormationAndInAHandler) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.batch.max_batch = 4;
  options.batch.max_wait = std::chrono::milliseconds(50);
  Server server(options, &kb);
  std::latch gate(1);
  std::atomic<bool> entered{false};
  ASSERT_TRUE(
      server.register_endpoint(gated_endpoint(&gate, &entered, 0)).ok());
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::multiset<std::uint64_t> replied;
  const auto submit = [&](std::uint64_t seed) {
    Request request;
    request.kernel = "test_kernel";
    request.seed = seed;
    return server.submit(request, [&](const Response& response) {
      std::lock_guard<std::mutex> lock(mu);
      replied.insert(response.id);
    });
  };
  const auto replies = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return replied.size();
  };
  // One worker blocks inside the handler; the other opens a batch with
  // the next request and sits in its fill wait (batch formation).
  ASSERT_TRUE(submit(0).ok());
  ASSERT_TRUE(wait_for([&] { return entered.load(); }));
  ASSERT_TRUE(submit(1).ok());

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server.stop();
    stopped.store(true);
  });
  // stop() drains first: the filling batch flushes at max_wait and is
  // answered, but the blocked handler holds stop() back.
  EXPECT_TRUE(wait_for([&] { return replies() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(stopped.load());
  // The free worker is now blocked in batch formation on an empty queue;
  // releasing the handler lets stop() close the queue and join both.
  gate.count_down();
  EXPECT_TRUE(wait_for([&] { return stopped.load(); }));
  stopper.join();
  EXPECT_EQ(replied.size(), 2u);
  EXPECT_EQ(std::set<std::uint64_t>(replied.begin(), replied.end()).size(),
            2u);  // every admitted request answered exactly once
  EXPECT_EQ(submit(2).code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------ span chains

std::string annotation(const obs::TraceEvent& event, const std::string& key) {
  for (const auto& [k, v] : event.annotations) {
    if (k == key) return v;
  }
  return "";
}

/// Checks that `trace_id` holds exactly one request's chain: a "request"
/// root under `parent` annotated outcome=`outcome`, child spans named
/// `children` (any order) each parented to the root and inside its
/// interval, and instants named `instants`. Returns the root.
obs::TraceEvent expect_chain(const obs::Tracer& tracer, std::uint64_t trace_id,
                             std::uint64_t parent,
                             std::multiset<std::string> children,
                             std::multiset<std::string> instants,
                             const std::string& outcome) {
  std::vector<obs::TraceEvent> spans;
  std::multiset<std::string> instant_names;
  std::vector<double> instant_times;
  for (const obs::TraceEvent& event : tracer.collect()) {
    if (event.trace_id != trace_id) continue;
    if (event.kind == obs::TraceEvent::Kind::kInstant) {
      instant_names.insert(event.name);
      instant_times.push_back(event.start_us);
    } else {
      spans.push_back(event);
    }
  }
  obs::TraceEvent root;
  std::size_t roots = 0;
  for (const obs::TraceEvent& span : spans) {
    if (span.name == "request") {
      root = span;
      ++roots;
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(root.parent_id, parent);
  EXPECT_EQ(root.component, "serve");
  EXPECT_EQ(annotation(root, "outcome"), outcome);
  std::multiset<std::string> child_names;
  for (const obs::TraceEvent& span : spans) {
    if (span.name == "request") continue;
    child_names.insert(span.name);
    EXPECT_EQ(span.parent_id, root.span_id) << span.name;
    EXPECT_GE(span.start_us, root.start_us) << span.name;
    EXPECT_LE(span.end_us, root.end_us) << span.name;
  }
  EXPECT_EQ(child_names, children);
  EXPECT_EQ(instant_names, instants);
  for (double at : instant_times) {
    EXPECT_GE(at, root.start_us);
    EXPECT_LE(at, root.end_us);
  }
  return root;
}

/// Submits one request joining trace `trace` and waits for its reply.
Status submit_and_drain(Server& server, obs::TraceContext trace,
                        SlaClass sla, Clock::time_point deadline =
                                          Clock::time_point::max()) {
  Request request;
  request.kernel = "test_kernel";
  request.sla = sla;
  request.deadline = deadline;
  request.trace = trace;
  Status replied = Internal("no reply");
  EXPECT_TRUE(server
                  .submit(request, [&](const Response& response) {
                    replied = response.status;
                  })
                  .ok());
  server.drain();
  return replied;
}

TEST(ServerTrace, OkChainHasQueueBatchExecuteReplyUnderRoot) {
  obs::TracerConfig tc;
  tc.enabled = true;
  obs::Tracer tracer(tc);
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.tracer = &tracer;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());
  // A propagated context: the root joins the caller's trace and parents
  // under the caller's span.
  const obs::TraceContext caller{1'000'000, 999'999};
  EXPECT_TRUE(
      submit_and_drain(server, caller, SlaClass::kLatencyCritical).ok());
  server.stop();

  const obs::TraceEvent root =
      expect_chain(tracer, caller.trace_id, caller.parent_span,
                   {"queue", "batch", "execute", "reply"}, {}, "ok");
  EXPECT_EQ(annotation(root, "sla"), "lc");
  for (const obs::TraceEvent& event : tracer.collect()) {
    if (event.name == "execute") {
      EXPECT_EQ(annotation(event, "variant"), "test_kernel-cpu");
      EXPECT_EQ(annotation(event, "batch_size"), "1");
    }
    if (event.name == "batch") {
      EXPECT_EQ(annotation(event, "batch_size"), "1");
    }
  }
}

TEST(ServerTrace, ExpiredChainHasQueueSpanAndExpiredInstant) {
  obs::TracerConfig tc;
  tc.enabled = true;
  obs::Tracer tracer(tc);
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.tracer = &tracer;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());
  const obs::TraceContext caller{2'000'000, 0};
  EXPECT_EQ(submit_and_drain(server, caller, SlaClass::kThroughput,
                             Clock::now() - std::chrono::milliseconds(1))
                .code(),
            StatusCode::kDeadlineExceeded);
  server.stop();
  expect_chain(tracer, caller.trace_id, 0, {"queue"}, {"expired"},
               "expired");
}

TEST(ServerTrace, FailedThenUnavailableChainsOnceEveryBreakerTrips) {
  obs::TracerConfig tc;
  tc.enabled = true;
  obs::Tracer tracer(tc);
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.tracer = &tracer;
  options.breaker.failure_threshold = 1;
  options.breaker.open_cooldown_us = 1e12;
  options.fault_injector = [](const Batch&, const compiler::Variant&) {
    return Unavailable("injected");
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());
  // The first request runs, fails, and trips the only variant's breaker;
  // the second finds every variant withheld.
  const obs::TraceContext failed{3'000'000, 0};
  const obs::TraceContext unavailable{3'000'001, 0};
  EXPECT_EQ(submit_and_drain(server, failed, SlaClass::kThroughput).code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(server.degraded());
  EXPECT_EQ(submit_and_drain(server, unavailable, SlaClass::kLatencyCritical)
                .code(),
            StatusCode::kUnavailable);
  server.stop();

  const obs::TraceEvent root =
      expect_chain(tracer, failed.trace_id, 0,
                   {"queue", "batch", "execute", "reply"}, {"fault-injected"},
                   "failed");
  EXPECT_EQ(annotation(root, "sla"), "tp");
  expect_chain(tracer, unavailable.trace_id, 0, {"queue"}, {"unavailable"},
               "unavailable");
  EXPECT_EQ(server.metrics().snapshot().unavailable, 1u);
  EXPECT_EQ(server.metrics().snapshot().failed, 1u);
}

// ----------------------------------------- real use-case endpoint smoke

// ---------------------------------------------------------- input cache

TEST(Server, InputCacheWarmsRepeatedDataKeys) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.batch.max_batch = 1;  // one request per batch: per-request keys
  options.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  options.input_stage_scale = 0.0;  // account the stall, don't sleep it
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  for (int i = 0; i < 10; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.data_key = "tenant-a/hot";  // the same object every time
    request.input_bytes = 64.0 * 1024;
    ASSERT_TRUE(server.submit(request, [](const Response&) {}).ok());
    server.drain();  // serialize batches so the first insert is visible
  }
  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.input_misses, 1u);  // only the first read paid the link
  EXPECT_EQ(snap.input_hits, 9u);
  EXPECT_GT(snap.input_hit_rate(), 0.85);
  EXPECT_GT(snap.input_stall_us, 0.0);
}

TEST(Server, ColdInputPathMissesEveryTime) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.batch.max_batch = 1;
  // Default input_cache capacity is 0: the cold path, every keyed
  // request pays its input transfer.
  options.input_stage_scale = 0.0;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  for (int i = 0; i < 5; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.data_key = "tenant-a/hot";
    request.input_bytes = 64.0 * 1024;
    ASSERT_TRUE(server.submit(request, [](const Response&) {}).ok());
  }
  server.drain();
  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.input_hits, 0u);
  EXPECT_GE(snap.input_misses, 1u);
  EXPECT_DOUBLE_EQ(snap.input_hit_rate(), 0.0);
}

TEST(Server, UnkeyedRequestsSkipInputStaging) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());
  for (int i = 0; i < 5; ++i) {
    Request request;
    request.kernel = "test_kernel";  // no data_key
    ASSERT_TRUE(server.submit(request, [](const Response&) {}).ok());
  }
  server.drain();
  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.input_hits + snap.input_misses, 0u);
  EXPECT_DOUBLE_EQ(snap.input_stall_us, 0.0);
}

TEST(Server, WarmInputPreseedsCacheWithoutStall) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.batch.max_batch = 1;
  options.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  options.input_stage_scale = 0.0;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  // Re-seed the entry a recovery replay would restore: the very first
  // request is already a hit — the restart-to-warm path.
  const data::ShardKey key{data::object_id_from_name("tenant-a/hot"), 0, 0};
  server.warm_input(key, 64.0 * 1024);
  EXPECT_GT(server.input_cache_resident_bytes(), 0.0);

  for (int i = 0; i < 5; ++i) {
    Request request;
    request.kernel = "test_kernel";
    request.data_key = "tenant-a/hot";
    request.input_bytes = 64.0 * 1024;
    ASSERT_TRUE(server.submit(request, [](const Response&) {}).ok());
    server.drain();
  }
  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.input_misses, 0u);
  EXPECT_EQ(snap.input_hits, 5u);
  EXPECT_DOUBLE_EQ(snap.input_stall_us, 0.0);
}

TEST(Server, InputStagedObserverSeesColdStagingsOnly) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 1;
  options.batch.max_batch = 1;
  options.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  options.input_stage_scale = 0.0;
  std::mutex mu;
  std::vector<std::pair<data::ShardKey, double>> staged;
  options.on_input_staged = [&](const data::ShardKey& key, double bytes,
                                double) {
    std::lock_guard<std::mutex> lock(mu);
    staged.push_back({key, bytes});
  };
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  const auto send = [&](const std::string& key) {
    Request request;
    request.kernel = "test_kernel";
    request.data_key = key;
    request.input_bytes = 32.0 * 1024;
    ASSERT_TRUE(server.submit(request, [](const Response&) {}).ok());
    server.drain();
  };
  send("obj-a");
  send("obj-a");  // warm: no staging, no callback
  send("obj-b");
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(staged.size(), 2u);  // one cold staging per distinct key
    EXPECT_EQ(staged[0].first.object, data::object_id_from_name("obj-a"));
    EXPECT_DOUBLE_EQ(staged[0].second, 32.0 * 1024);
    EXPECT_EQ(staged[1].first.object, data::object_id_from_name("obj-b"));
  }

  // Process death drops the staged inputs; the next read is cold again
  // and the observer (the WAL, in the federation) sees it again.
  server.clear_input_cache();
  EXPECT_DOUBLE_EQ(server.input_cache_resident_bytes(), 0.0);
  send("obj-a");
  server.stop();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(staged.size(), 3u);
}

TEST(Endpoints, StandardEndpointsServeRealWork) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.worker_threads = 2;
  options.batch.max_batch = 4;
  Server server(options, &kb);
  for (Endpoint& ep : standard_endpoints()) {
    ASSERT_TRUE(server.register_endpoint(std::move(ep)).ok());
  }
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(kb.kernels().size(), 3u);

  std::mutex mu;
  std::map<std::string, std::vector<double>> values_by_kernel;
  const std::vector<std::string> kernels = {"energy_forecast",
                                            "aq_dispersion", "ptdr_route"};
  for (std::uint64_t i = 0; i < 12; ++i) {
    Request request;
    request.kernel = kernels[i % kernels.size()];
    request.seed = 1000 + i;
    const std::string kernel = request.kernel;
    ASSERT_TRUE(server
                    .submit(request,
                            [&, kernel](const Response& response) {
                              ASSERT_TRUE(response.status.ok())
                                  << response.status.to_string();
                              std::lock_guard<std::mutex> lock(mu);
                              values_by_kernel[kernel].push_back(
                                  response.value);
                            })
                    .ok());
  }
  server.drain();
  server.stop();

  ASSERT_EQ(values_by_kernel.size(), 3u);
  for (double mw : values_by_kernel["energy_forecast"]) {
    EXPECT_GT(mw, 0.0);  // some wind somewhere
  }
  for (double p : values_by_kernel["aq_dispersion"]) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);  // exceedance probability
  }
  for (double s : values_by_kernel["ptdr_route"]) {
    EXPECT_GT(s, 0.0);  // median route time in seconds
  }
}

// ------------------------------------------------------- graceful drain

TEST(Server, GracefulDrainSealsAdmissionAndDeliversEveryAdmitted) {
  runtime::KnowledgeBase kb;
  ServerOptions options;
  options.queue_capacity = 1024;
  options.worker_threads = 2;
  options.batch.max_batch = 4;
  Server server(options, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());

  // Four producers hammer the server; each exits on the first UNAVAILABLE
  // (the drain seal), like a client whose connection got a GOAWAY.
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0;; ++i) {
        Request request;
        request.kernel = "test_kernel";
        request.seed = static_cast<std::uint64_t>(p) * 100000 + i;
        Status st = server.submit(std::move(request), [&](const Response&) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
        if (st.code() == StatusCode::kUnavailable) return;  // sealed
        if (st.ok()) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t drained = server.drain_gracefully();
  EXPECT_TRUE(server.draining());
  for (std::thread& t : producers) t.join();

  // Everything admitted was delivered; nothing snuck in after. A submit
  // racing the seal may be admitted just after drain_gracefully's
  // fixpoint read, so its delivery can trail the drain by a moment —
  // poll briefly before asserting the books balance.
  const auto books = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (delivered.load() != accepted.load() &&
         std::chrono::steady_clock::now() < books) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), accepted.load());
  EXPECT_GT(delivered.load(), 0u);
  EXPECT_GT(drained, 0u);  // the drain overlapped in-flight work

  // Sealed: a fresh submit bounces without firing its callback.
  Request late;
  late.kernel = "test_kernel";
  bool fired = false;
  EXPECT_EQ(server.submit(std::move(late),
                          [&](const Response&) { fired = true; })
                .code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(fired);

  // resume_admission reopens the front door (the rejoin path).
  server.resume_admission();
  EXPECT_FALSE(server.draining());
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Request fresh;
  fresh.kernel = "test_kernel";
  fresh.seed = 123;
  ASSERT_TRUE(server
                  .submit(std::move(fresh),
                          [&](const Response& response) {
                            EXPECT_TRUE(response.status.ok());
                            EXPECT_EQ(response.value, 123.0);
                            std::lock_guard<std::mutex> lock(mu);
                            done = true;
                            cv.notify_one();
                          })
                  .ok());
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; });
  EXPECT_TRUE(done);
  server.stop();
}

TEST(Server, GracefulDrainOnIdleServerReturnsZero) {
  runtime::KnowledgeBase kb;
  Server server(ServerOptions{}, &kb);
  ASSERT_TRUE(server.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(server.drain_gracefully(), 0u);
  server.resume_admission();
  server.stop();
  // Not running: a no-op, not a hang.
  EXPECT_EQ(server.drain_gracefully(), 0u);
}

// ------------------------------------------- loadgen submit-fn plumbing

/// Test double standing in for a server/cluster: replies inline and
/// records every data key per submitting thread-agnostic stream.
struct RecordingTarget {
  std::mutex mu;
  std::vector<std::string> keys;
  std::atomic<bool> drained{false};

  SubmitFn submit_fn() {
    return [this](Request request, ResponseCallback on_done) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!request.data_key.empty()) keys.push_back(request.data_key);
      }
      Response response;
      response.status = OkStatus();
      response.value = static_cast<double>(request.seed % 1000);
      response.latency_us = 10.0;
      on_done(response);
      return OkStatus();
    };
  }
  DrainFn drain_fn() {
    return [this] { drained.store(true); };
  }
};

TEST(LoadGen, SubmitFnTargetsGetTheSameTrafficContract) {
  RecordingTarget target;
  WorkloadSpec spec;
  spec.kernels = {"k"};
  spec.offered_rps = 2000.0;
  spec.duration = std::chrono::milliseconds(50);
  spec.num_data_objects = 8;
  const LoadReport report =
      run_open_loop(target.submit_fn(), target.drain_fn(), spec);
  EXPECT_EQ(report.completed, report.offered);  // inline OK replies
  EXPECT_GT(report.completed, 0u);
  EXPECT_TRUE(target.drained.load());  // drain hook ran after the horizon
}

TEST(LoadGen, KeyNamerAndPerClientStrideSeparateHotSets) {
  RecordingTarget target;
  WorkloadSpec spec;
  spec.kernels = {"k"};
  spec.duration = std::chrono::milliseconds(60);
  spec.num_data_objects = 8;
  spec.zipf_skew = 1.2;
  spec.per_client_key_stride = 4;  // client c's rank 0 -> object 4c % 8
  spec.key_namer = [](int client, std::size_t index) {
    return "c" + std::to_string(client) + "-obj" + std::to_string(index);
  };
  const LoadReport report = run_closed_loop(
      target.submit_fn(), target.drain_fn(), spec, /*clients=*/2);
  EXPECT_GT(report.completed, 0u);

  std::set<std::string> distinct(target.keys.begin(), target.keys.end());
  bool saw_c0 = false;
  bool saw_c1 = false;
  for (const std::string& key : distinct) {
    if (key.rfind("c0-", 0) == 0) saw_c0 = true;
    if (key.rfind("c1-", 0) == 0) saw_c1 = true;
  }
  // Both clients generated traffic under their own key namespace.
  EXPECT_TRUE(saw_c0);
  EXPECT_TRUE(saw_c1);
}

TEST(LoadGen, DefaultKeyNamingIsUnchanged) {
  RecordingTarget target;
  WorkloadSpec spec;
  spec.kernels = {"k"};
  spec.offered_rps = 2000.0;
  spec.duration = std::chrono::milliseconds(40);
  spec.num_data_objects = 4;
  (void)run_open_loop(target.submit_fn(), target.drain_fn(), spec);
  ASSERT_FALSE(target.keys.empty());
  for (const std::string& key : target.keys) {
    EXPECT_EQ(key.rfind("obj", 0), 0u) << key;  // "obj<rank>" as before
  }
}

}  // namespace
}  // namespace everest::serve
