#include "kvs/repair.h"

namespace camp::kvs {

RepairDriver::RepairDriver(std::function<void()> tick,
                           std::chrono::milliseconds interval)
    : tick_(std::move(tick)), interval_(interval) {
  thread_ = std::thread([this] { run(); });
}

RepairDriver::~RepairDriver() { stop(); }

void RepairDriver::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void RepairDriver::run() {
  // Sleep in 10ms slices so stop() never waits a full interval to join.
  constexpr auto kSlice = std::chrono::milliseconds(10);
  while (!stop_.load(std::memory_order_acquire)) {
    auto remaining = interval_;
    while (remaining.count() > 0 && !stop_.load(std::memory_order_acquire)) {
      const auto nap = remaining < kSlice ? remaining : kSlice;
      std::this_thread::sleep_for(nap);
      remaining -= nap;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    tick_();
    ticks_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace camp::kvs
