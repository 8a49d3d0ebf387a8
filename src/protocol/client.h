// bteq-like tdwp client library: what the "existing application" of the
// paper's Figure 1 uses. Decodes the binary record format back into datums
// so tests can assert bit-level round-trips.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "protocol/socket.h"
#include "protocol/tdwp.h"

namespace hyperq::protocol {

/// \brief A decoded statement result on the client side.
struct ClientResult {
  std::vector<WireColumn> columns;
  std::vector<std::vector<Datum>> rows;
  uint64_t activity_count = 0;
  std::string tag;
  double translation_micros = 0;
  double execution_micros = 0;
  double conversion_micros = 0;
};

/// \brief Synchronous tdwp client (one outstanding request at a time).
class TdwpClient {
 public:
  TdwpClient() = default;

  Status Connect(uint16_t port);
  /// \brief Bounds every wait for a response byte (SO_RCVTIMEO) after
  /// Connect(); an expiry fails the pending call with kDeadlineExceeded.
  /// 0 = wait forever (the default).
  Status SetRecvTimeoutMs(int ms) { return sock_.SetRecvTimeoutMs(ms); }
  Status Logon(const std::string& user, const std::string& password,
               const std::string& default_database = "");
  Result<ClientResult> Run(const std::string& sql);
  /// \brief Asks the server to cancel the in-flight request (tdwp
  /// kAbortRequest). Safe to call from another thread while Run() is
  /// blocked reading the result: the aborted Run() surfaces the server's
  /// kError frame. No-op effect if nothing is in flight.
  Status Abort();
  /// \brief Fetches the server's metrics scrape (tdwp kStatsRequest,
  /// DESIGN.md §9). Works pre-logon; returns the text rendering of the
  /// server-side MetricsRegistry.
  Result<std::string> Scrape();
  /// \brief Simulates a vanished client: closes the socket with no
  /// Goodbye frame (tests the server's mid-stream disconnect detection).
  void HardClose();
  void Goodbye();

  uint32_t session_id() const { return session_id_; }

 private:
  Socket sock_;
  uint32_t session_id_ = 0;
};

}  // namespace hyperq::protocol
