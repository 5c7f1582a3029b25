#include "calibrate.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>

namespace perfbench {
namespace {

// The work of one chunk: edit distances between short identifiers, a chain
// of dependent hashed loads through a 4 MiB table and a small sort. The
// matcher spends its time on the same kinds of work (string metrics, table
// probes, sorting), so a host that slows one slows both alike.
constexpr size_t kWords = 512;
constexpr size_t kTableSize = size_t{1} << 20;  // uint32 entries: 4 MiB
constexpr int kPairs = 240;
constexpr int kProbes = 60'000;
constexpr size_t kSortLen = 2048;

struct Inputs {
  std::vector<std::string> words;
  std::vector<uint32_t> table;
};

Inputs MakeInputs() {
  Inputs in;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  in.words.reserve(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    std::string w(6 + next() % 23, 'a');
    for (char& c : w) c = static_cast<char>('a' + next() % 26);
    in.words.push_back(std::move(w));
  }
  in.table.resize(kTableSize);
  for (uint32_t& v : in.table) v = static_cast<uint32_t>(next());
  return in;
}

const Inputs& TheInputs() {
  static const Inputs inputs = MakeInputs();
  return inputs;
}

uint32_t EditDistance(const std::string& a, const std::string& b,
                      std::vector<uint32_t>& row) {
  row.resize(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = static_cast<uint32_t>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    uint32_t diag = row[0];
    row[0] = static_cast<uint32_t>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      uint32_t up = row[j];
      uint32_t sub = diag + (a[i - 1] != b[j - 1]);
      row[j] = std::min({up + 1, row[j - 1] + 1, sub});
      diag = up;
    }
  }
  return row[b.size()];
}

uint64_t Chunk(const Inputs& in) {
  uint64_t acc = 0;
  std::vector<uint32_t> row;
  for (int i = 0; i < kPairs; ++i) {
    acc += EditDistance(in.words[(i * 37) % kWords],
                        in.words[(i * 101 + 7) % kWords], row);
  }
  uint32_t h = 2166136261u;
  for (int i = 0; i < kProbes; ++i) {
    h = (h ^ in.table[h & (kTableSize - 1)]) * 16777619u;
  }
  acc += h;
  std::vector<uint32_t> v(in.table.begin(), in.table.begin() + kSortLen);
  std::sort(v.begin(), v.end());
  return acc + v[kSortLen / 2];
}

std::atomic<uint64_t> g_sink{0};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void PrepareCalibration() { TheInputs(); }

uint64_t Calibrate(int threads, int chunks, std::vector<double>* chunk_ms) {
  const Inputs& in = TheInputs();
  std::mutex mu;
  auto work = [&] {
    std::vector<double> mine;
    uint64_t acc = 0;
    for (int c = 0; c < chunks; ++c) {
      const uint64_t t0 = NowNs();
      acc += Chunk(in);
      mine.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    g_sink.fetch_add(acc, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    chunk_ms->insert(chunk_ms->end(), mine.begin(), mine.end());
  };
  const uint64_t start = NowNs();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
  return NowNs() - start;
}

ReferenceServer::ReferenceServer() {
  TheInputs();
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listen_fd_ < 0 ||
      bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd_, 16) != 0 ||
      getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return;
  }
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { Serve(); });
}

ReferenceServer::~ReferenceServer() {
  stop_.store(true);
  if (thread_.joinable()) {
    // Wake the accept with one last connection.
    RoundTripMs();
    thread_.join();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

void ReferenceServer::Serve() {
  const Inputs& in = TheInputs();
  while (!stop_.load()) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    char byte = 0;
    if (read(fd, &byte, 1) == 1) {
      if (!stop_.load()) g_sink.fetch_add(Chunk(in), std::memory_order_relaxed);
      if (write(fd, &byte, 1) != 1) byte = 0;
    }
    close(fd);
  }
}

double ReferenceServer::RoundTripMs() {
  if (port_ == 0) return -1;
  const uint64_t t0 = NowNs();
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  char byte = 1;
  bool ok = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
            write(fd, &byte, 1) == 1 && read(fd, &byte, 1) == 1;
  close(fd);
  return ok ? static_cast<double>(NowNs() - t0) / 1e6 : -1;
}

}  // namespace perfbench
