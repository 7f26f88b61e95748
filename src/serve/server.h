#pragma once

/// \file server.h
/// The daemon loop: a reader thread parsing requests off an input stream
/// into a BoundedQueue, and a worker (the calling thread) draining the
/// queue through the AdmissionService and writing one response line per
/// request.  The reader also parses each ADMIT body into its task (or the
/// ERROR text of the failure), inside the request's `parse` span, so that
/// work overlaps the worker's analysis of the requests queued before it.
///
/// Overload behaviour: when the queue is full the READER answers
/// `SHED <name>` immediately instead of blocking — bounded memory, and the
/// client learns in O(1) that the request was dropped unprocessed.  Under
/// overload a SHED line can therefore overtake the responses of
/// still-queued earlier requests; every response names its task, so
/// clients correlate by name, not by order.  In the common (non-saturated)
/// case responses come back strictly in request order.
///
/// Every request is executed under the configured per-request deadline.
/// Injected faults (util/fault.h) and analysis errors surface as ERROR
/// responses — the loop survives them; only QUIT or input EOF end it.

#include <cstdint>
#include <iosfwd>

#include "obs/trace.h"
#include "serve/admission.h"

namespace hedra::serve {

struct ServerConfig {
  std::size_t queue_capacity = 64;
  /// Per-request analysis deadline; <= 0 means unlimited.
  double request_deadline_sec = 0.0;
  /// When non-null every request carries a RequestTrace (parse ->
  /// queue-wait -> admission phases), submitted here on completion.  Null
  /// (the default) records nothing — no allocation, no timestamps.
  obs::Tracer* tracer = nullptr;
};

struct ServerStats {
  std::uint64_t requests = 0;   ///< requests executed (incl. errors)
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t provisional = 0;
  std::uint64_t shed = 0;       ///< refused at the queue, never executed
  /// The two distinguishable causes of a SHED reply (shed = their sum):
  /// a genuinely full queue vs an injected serve.queue.push fault losing
  /// the hand-off.
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_fault = 0;
  std::uint64_t errors = 0;
};

/// Runs the loop until EOF or QUIT; returns the tally.
ServerStats run_server(std::istream& in, std::ostream& out,
                       AdmissionService& service,
                       const ServerConfig& config = {});

}  // namespace hedra::serve
