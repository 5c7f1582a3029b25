// Fixed reference work for measuring how fast the host runs right now.
//
// A shared host's speed drifts by tens of percent over minutes, far more
// than the run-to-run noise of the workloads themselves. The harness times
// this work alongside each workload (chunks in short bursts, or round trips
// to a ReferenceServer), and run.py scales the workload's times by the
// ratio of those samples to their reference time, so a figure reads as it
// would on the host at its reference speed. The work lives in its own library, built
// without the program, so no change to the program can change what it
// measures.

#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/// Median chunk time, in ms, of one thread on the reference host (4 vCPU
/// Intel Xeon with AVX-512, gcc 12.2, Release), rounded.
inline constexpr double kReferenceChunkMs = 1.0;

/// Median ReferenceServer round trip, in ms, on the reference host, rounded.
inline constexpr double kReferenceRoundTripMs = 2.0;

/// Builds the fixed inputs of the reference work. Called once before the
/// first timed chunk, so no chunk pays for it.
void PrepareCalibration();

/// Runs `chunks` chunks of the reference work on each of `threads` threads
/// at once and appends each chunk's wall time, in ms, to `chunk_ms`.
/// Returns the burst's wall time in ns.
uint64_t Calibrate(int threads, int chunks, std::vector<double>* chunk_ms);

/// A loopback TCP server whose every connection carries one request: a
/// byte in, one chunk of reference work, a byte out. A round trip has the
/// shape of a served request (connect, accept, a thread woken from idle to
/// compute, a reply woken back) without any of the program's code, so it
/// slows as a served request does when the host's scheduling does, which
/// back-to-back chunks do not show. Not copyable: its thread uses `this`.
class ReferenceServer {
 public:
  ReferenceServer();
  ~ReferenceServer();
  ReferenceServer(const ReferenceServer&) = delete;
  ReferenceServer& operator=(const ReferenceServer&) = delete;

  /// One request from a fresh connection; its round trip in ms, or a
  /// negative value when the exchange failed.
  double RoundTripMs();

 private:
  void Serve();

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench
