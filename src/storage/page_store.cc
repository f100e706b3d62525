#include "storage/page_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "wal/crash_point.h"

namespace insight {
namespace {

/// Full-size pread with EINTR retry. Short reads past EOF are an error
/// here: callers only read pages they know were allocated, so a short
/// read means the file was truncated underneath us.
Status PreadFully(int fd, void* buf, size_t count, off_t offset,
                  const std::string& path) {
  char* p = static_cast<char*>(buf);
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pread(fd, p + done, count - done,
                              offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path + ": " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("pread " + path + ": short read (" +
                             std::to_string(done) + "/" +
                             std::to_string(count) + " bytes at offset " +
                             std::to_string(offset) + ")");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PwriteFully(int fd, const void* buf, size_t count, off_t offset,
                   const std::string& path) {
  const char* p = static_cast<const char*>(buf);
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pwrite(fd, p + done, count - done,
                               offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite " + path + ": " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("pwrite " + path + ": wrote 0 bytes at offset " +
                             std::to_string(offset));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status SyncContainingDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd =
      ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir " + dir + ": " + std::strerror(errno));
  }
  Status st = Status::OK();
  if (::fsync(fd) != 0) {
    st = Status::IOError("fsync dir " + dir + ": " + std::strerror(errno));
  }
  ::close(fd);
  return st;
}

Result<PageId> InMemoryPageStore::AllocatePage() {
  auto page = std::make_unique<Page>();
  page->Zero();
  std::lock_guard<std::mutex> lk(mu_);
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

Page* InMemoryPageStore::Slot(PageId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return id < pages_.size() ? pages_[id].get() : nullptr;
}

Status InMemoryPageStore::ReadPage(PageId id, Page* out) {
  Page* slot = Slot(id);
  if (slot == nullptr) {
    return Status::OutOfRange("page " + std::to_string(id) + " of " +
                              std::to_string(num_pages()));
  }
  std::memcpy(out->data, slot->data, kPageSize);
  return Status::OK();
}

Status InMemoryPageStore::WritePage(PageId id, const Page& page) {
  Page* slot = Slot(id);
  if (slot == nullptr) {
    return Status::OutOfRange("page " + std::to_string(id) + " of " +
                              std::to_string(num_pages()));
  }
  std::memcpy(slot->data, page.data, kPageSize);
  return Status::OK();
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const std::string& path) {
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  if (!existed) {
    // Make the new file's directory entry durable; without this a crash
    // can lose the file itself even after its contents were fsynced.
    Status dir = SyncContainingDirectory(path);
    if (!dir.ok()) {
      ::close(fd);
      return dir;
    }
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + std::strerror(errno));
  }
  // Floor to whole pages: a torn final page (crash mid-extension) is not
  // addressable and will be re-allocated and re-written after recovery.
  const PageId num_pages = static_cast<PageId>(st.st_size / kPageSize);
  return std::unique_ptr<FilePageStore>(
      new FilePageStore(fd, path, num_pages));
}

FilePageStore::~FilePageStore() {
  if (fd_ >= 0) {
    ::fsync(fd_);  // Best effort; close cannot report a Status.
    ::close(fd_);
  }
}

Result<PageId> FilePageStore::AllocatePage() {
  static const Page kZeroPage = [] {
    Page p;
    p.Zero();
    return p;
  }();
  std::lock_guard<std::mutex> lk(alloc_mu_);
  const PageId id = num_pages_.load();
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  INSIGHT_RETURN_NOT_OK(
      PwriteFully(fd_, kZeroPage.data, kPageSize, offset, path_));
  num_pages_.store(id + 1);
  return id;
}

Status FilePageStore::ReadPage(PageId id, Page* out) {
  if (id >= num_pages_.load()) {
    return Status::OutOfRange("page " + std::to_string(id) + " of " +
                              std::to_string(num_pages_.load()));
  }
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  return PreadFully(fd_, out->data, kPageSize, offset, path_);
}

Status FilePageStore::WritePage(PageId id, const Page& page) {
  if (id >= num_pages_.load()) {
    return Status::OutOfRange("page " + std::to_string(id) + " of " +
                              std::to_string(num_pages_.load()));
  }
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  return PwriteFully(fd_, page.data, kPageSize, offset, path_);
}

Status FilePageStore::Sync() {
  INSIGHT_CRASH_POINT("pagestore_sync");
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace insight
