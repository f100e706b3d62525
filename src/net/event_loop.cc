#include "net/event_loop.h"

#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <chrono>

#include "common/logging.h"

namespace insight {

namespace {

int MustEpollCreate() {
  const int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) {
    INSIGHT_FATAL() << "epoll_create1: " << std::strerror(errno);
  }
  return fd;
}

int MustEventFd() {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) {
    INSIGHT_FATAL() << "eventfd: " << std::strerror(errno);
  }
  return fd;
}

}  // namespace

EventLoop::EventLoop()
    : epoll_fd_(MustEpollCreate()), wakeup_fd_(MustEventFd()) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) != 0) {
    INSIGHT_FATAL() << "epoll_ctl(wakeup): " << std::strerror(errno);
  }
}

EventLoop::~EventLoop() {
  ::close(wakeup_fd_);
  ::close(epoll_fd_);
}

void EventLoop::Loop() {
  owner_.store(std::this_thread::get_id(), std::memory_order_release);
  auto last_tick = std::chrono::steady_clock::now();
  std::vector<epoll_event> events(64);
  while (!quit_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), tick_ms_);
    if (n < 0) {
      if (errno == EINTR) continue;
      INSIGHT_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_) {
        uint64_t drained;
        while (::read(wakeup_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // The callback may remove other fds (even itself); look up fresh.
      auto it = callbacks_.find(fd);
      if (it != callbacks_.end()) it->second(events[i].events);
    }
    if (static_cast<size_t>(n) == events.size()) {
      events.resize(events.size() * 2);
    }
    DrainPending();
    if (tick_) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_tick >= std::chrono::milliseconds(tick_ms_)) {
        last_tick = now;
        tick_();
      }
    }
  }
  // Run functors queued during the final iteration (connection teardown).
  DrainPending();
}

void EventLoop::Quit() {
  quit_.store(true, std::memory_order_release);
  Wakeup();
}

Status EventLoop::AddFd(int fd, uint32_t events, FdCallback callback) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(ADD): ") +
                           std::strerror(errno));
  }
  callbacks_[fd] = std::move(callback);
  return Status::OK();
}

Status EventLoop::UpdateFd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(MOD): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::RemoveFd(int fd) {
  callbacks_.erase(fd);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    return Status::IOError(std::string("epoll_ctl(DEL): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::RunInLoop(Functor fn) {
  if (IsInLoopThread()) {
    fn();
    return;
  }
  QueueInLoop(std::move(fn));
}

void EventLoop::QueueInLoop(Functor fn) {
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    pending_.push_back(std::move(fn));
  }
  Wakeup();
}

void EventLoop::Wakeup() {
  const uint64_t one = 1;
  // Best effort; EAGAIN means a wakeup is already pending.
  [[maybe_unused]] ssize_t n = ::write(wakeup_fd_, &one, sizeof(one));
}

void EventLoop::DrainPending() {
  std::vector<Functor> batch;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    batch.swap(pending_);
  }
  for (Functor& fn : batch) fn();
}

}  // namespace insight
