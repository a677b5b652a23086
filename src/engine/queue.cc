#include "engine/queue.h"

#include <algorithm>

namespace muppet {

EventQueue::EventQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Status EventQueue::TryPushMove(RoutedEvent* item) {
  {
    MutexLock lock(mutex_);
    if (stopped_) return Status::Aborted("queue: stopped");
    if (items_.size() >= capacity_) {
      return Status::ResourceExhausted("queue: full");
    }
    items_.push_back(std::move(*item));
    size_.store(items_.size(), std::memory_order_release);
  }
  not_empty_.NotifyOne();
  return Status::OK();
}

bool EventQueue::Pop(RoutedEvent* out) {
  MutexLock lock(mutex_);
  while (!stopped_ && items_.empty()) not_empty_.Wait(mutex_);
  if (items_.empty()) return false;  // stopped and drained
  *out = std::move(items_.front());
  items_.pop_front();
  size_.store(items_.size(), std::memory_order_release);
  pops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool EventQueue::PopBatch(std::vector<RoutedEvent>* out, size_t max) {
  if (max == 0) return false;
  MutexLock lock(mutex_);
  while (!stopped_ && items_.empty()) not_empty_.Wait(mutex_);
  if (items_.empty()) return false;  // stopped and drained
  const size_t n = std::min(max, items_.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(items_.front()));
    items_.pop_front();
  }
  size_.store(items_.size(), std::memory_order_release);
  pops_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return true;
}

void EventQueue::Stop() {
  {
    MutexLock lock(mutex_);
    stopped_ = true;
  }
  not_empty_.NotifyAll();
}

void EventQueue::Restart() {
  MutexLock lock(mutex_);
  stopped_ = false;
}

size_t EventQueue::Clear() {
  MutexLock lock(mutex_);
  const size_t n = items_.size();
  items_.clear();
  size_.store(0, std::memory_order_release);
  return n;
}

bool EventQueue::stopped() const {
  MutexLock lock(mutex_);
  return stopped_;
}

}  // namespace muppet
