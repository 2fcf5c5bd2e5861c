#include "egress/egress.h"

#include <chrono>
#include <vector>

#include "obs/trace.h"

namespace tcq {

const char* ShedPolicyName(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kDropNewest:
      return "drop-newest";
    case ShedPolicy::kDropOldest:
      return "drop-oldest";
    case ShedPolicy::kBlock:
      return "block";
  }
  return "?";
}

PushEgress::PushEgress(Options opts, MetricsRegistryRef metrics,
                       std::string label)
    : opts_(opts), metrics_(OrPrivateRegistry(std::move(metrics))) {
  delivered_ = metrics_->GetCounter(
      MetricName("tcq_egress_delivered_total", "client", label));
  // Shed counts carry the policy so a dashboard can tell intentional
  // drop-oldest QoS from back-pressure starvation at a glance.
  std::string shed_name =
      label.empty()
          ? MetricName("tcq_egress_shed_total", "policy",
                       ShedPolicyName(opts_.shed))
          : "tcq_egress_shed_total{client=\"" + EscapeLabelValue(label) +
                "\",policy=\"" + ShedPolicyName(opts_.shed) + "\"}";
  shed_ = metrics_->GetCounter(shed_name);
  buffered_gauge_ = metrics_->GetGauge(
      MetricName("tcq_egress_buffered", "client", label));
  punctuations_ = metrics_->GetCounter(
      MetricName("tcq_egress_punctuations_total", "client", label));
  retractions_ = metrics_->GetCounter(
      MetricName("tcq_egress_retractions_total", "client", label));
}

size_t PushEgress::OfferBatch(std::span<Delivery> run) {
  // Sampled-batch context: the shared eddy delivers to egress synchronously
  // on the ingesting thread, so the context armed at the batch boundary is
  // still live here; emit + end-to-end spans close the trace.
  obs::TraceContext& tc = obs::CurrentTrace();
  const bool traced = tc.tracer != nullptr;
  int64_t t0 = traced ? NowMicros() : 0;
  std::vector<uint64_t> traced_ids;  // accepted deliveries' queries
  size_t accepted = 0;
  size_t pending = 0;  // accepted, not yet in size_, counted or signalled
  uint64_t punctuations = 0;
  uint64_t retractions = 0;
  // kDropOldest may have to shed a delivery that already moved to the
  // consumer side. A run that can overflow takes both locks up front, so it
  // does not have to let go of mu_ (and its contiguity) half way.
  std::unique_lock<std::mutex> out_lock(out_mu_, std::defer_lock);
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (opts_.shed == ShedPolicy::kDropOldest &&
      size_.load() + run.size() > opts_.capacity) {
    std::lock(out_lock, lock);
  } else {
    lock.lock();
  }
  auto publish = [&] {
    if (pending == 0) return;
    size_t now = size_.fetch_add(pending) + pending;
    delivered_->Inc(pending);
    if (punctuations > 0) punctuations_->Inc(punctuations);
    if (retractions > 0) retractions_->Inc(retractions);
    pending = punctuations = retractions = 0;
    buffered_gauge_->Set(static_cast<int64_t>(now));
    if (empty_waiters_ > 0) not_empty_.notify_all();
  };
  for (Delivery& delivery : run) {
    if (closed_) break;
    if (size_.load() + pending >= opts_.capacity) {
      if (opts_.shed == ShedPolicy::kDropNewest) {
        shed_->Inc();
        continue;
      }
      publish();
      if (opts_.shed == ShedPolicy::kDropOldest) {
        if (!out_lock.owns_lock() && !out_lock.try_lock()) {
          // A consumer holds out_mu_ and may be waiting for mu_ to refill
          // its side: let go, then take both in order.
          lock.unlock();
          std::lock(out_lock, lock);
          if (closed_) break;
        }
        // With both locks held the occupancy cannot move under us.
        if (size_.load() >= opts_.capacity) {
          DropOldestLocked();
          shed_->Inc();
        }
      } else {  // kBlock
        // What this run already queued is published above, so the client
        // whose polls will make room can see (and count) it.
        ++full_waiters_;
        not_full_.wait(
            lock, [&] { return closed_ || size_.load() < opts_.capacity; });
        --full_waiters_;
        if (closed_) break;
      }
    }
    if (delivery.tuple.valid()) {
      if (delivery.tuple.IsPunctuation()) ++punctuations;
      if (delivery.tuple.IsRetraction()) ++retractions;
    }
    if (traced) traced_ids.push_back(delivery.query_id);
    in_.push_back(std::move(delivery));
    ++accepted;
    ++pending;
  }
  publish();
  lock.unlock();
  if (out_lock.owns_lock()) out_lock.unlock();
  if (traced && accepted > 0) {
    int64_t now = NowMicros();
    tc.tracer->Record(obs::SpanKind::kEgressEmit, 0, traced_ids.front(), t0,
                      now - t0);
    if (tc.ingest_us > 0) {
      for (uint64_t id : traced_ids) {
        tc.tracer->RecordEndToEnd(id, tc.ingest_us, now - tc.ingest_us);
      }
    }
  }
  return accepted;
}

bool PushEgress::Offer(const Delivery& delivery) {
  Delivery copy = delivery;
  return OfferBatch(std::span<Delivery>(&copy, 1)) == 1;
}

void PushEgress::DropOldestLocked() {
  // The consumer side holds the older deliveries (it is refilled only
  // when empty, with everything the producer side had).
  std::deque<Delivery>& q = out_.empty() ? in_ : out_;
  if (q.empty()) return;
  q.pop_front();
  --size_;
}

bool PushEgress::PopLocked(Delivery* out) {
  if (out_.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_.empty()) return false;
    out_.swap(in_);
  }
  *out = std::move(out_.front());
  out_.pop_front();
  buffered_gauge_->Set(static_cast<int64_t>(size_.fetch_sub(1) - 1));
  return true;
}

void PushEgress::NotifyRoom() {
  // A kBlock producer registers as a waiter and then checks for room, both
  // under mu_, before it parks. The pop lowered size_ before this load, so
  // either the producer sees the room, or this sees the waiter and, by
  // taking mu_, notifies only once the producer has parked.
  if (full_waiters_.load() == 0) return;
  { std::lock_guard<std::mutex> lock(mu_); }
  not_full_.notify_all();
}

bool PushEgress::Poll(Delivery* out) {
  if (size_.load() == 0) return false;
  std::lock_guard<std::mutex> out_lock(out_mu_);
  if (!PopLocked(out)) return false;
  NotifyRoom();
  return true;
}

bool PushEgress::Receive(Delivery* out) {
  for (;;) {
    {
      std::lock_guard<std::mutex> out_lock(out_mu_);
      if (PopLocked(out)) {
        NotifyRoom();
        return true;
      }
    }
    // Wait under mu_ alone: a producer shedding the oldest delivery may
    // need out_mu_ to make progress.
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ && size_.load() == 0) return false;
    ++empty_waiters_;
    not_empty_.wait(lock, [&] { return closed_ || size_.load() > 0; });
    --empty_waiters_;
  }
}

void PushEgress::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

uint64_t PushEgress::delivered() const { return delivered_->Value(); }

uint64_t PushEgress::shed() const { return shed_->Value(); }

uint64_t PushEgress::punctuations_delivered() const {
  return punctuations_->Value();
}

uint64_t PushEgress::retractions_delivered() const {
  return retractions_->Value();
}

size_t PushEgress::buffered() const { return size_.load(); }

void PullEgress::Log(const Delivery& delivery) {
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<Tuple>& q = log_[delivery.query_id];
  q.push_back(delivery.tuple);
  if (opts_.max_per_query > 0 && q.size() > opts_.max_per_query) {
    q.pop_front();
  }
}

Timestamp PullEgress::FetchSince(uint64_t query_id, Timestamp since,
                                 std::vector<Tuple>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  Timestamp cursor = since;
  auto it = log_.find(query_id);
  if (it == log_.end()) return cursor;
  for (const Tuple& t : it->second) {
    if (t.timestamp() > since) {
      out->push_back(t);
      cursor = std::max(cursor, t.timestamp());
    }
  }
  return cursor;
}

size_t PullEgress::LoggedCount(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = log_.find(query_id);
  return it == log_.end() ? 0 : it->second.size();
}

}  // namespace tcq
