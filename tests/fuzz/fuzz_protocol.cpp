// libFuzzer harness for the serve line protocol
// (serve::parse_request_line). Built under -DSQVAE_BUILD_FUZZERS=ON
// (clang; composes -fsanitize=fuzzer with ASan) — ci/fuzz_smoke.sh runs a
// 30-second smoke from the checked-in corpus on every push — and with any
// compiler as the `fuzz_protocol_replay` test over that corpus.
//
// The parser is the server's trust boundary: every byte a TCP peer sends
// reaches it (after line framing in the event loop), so it must never
// crash, overflow, or read out of bounds on arbitrary input. Round-trip
// property checked on accepted inputs: a parsed request formats into a
// response line, and the `x` values echoed in its "y" array parse back
// to bit-identical doubles.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "serve/protocol.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // The transport strips the trailing newline before parsing; embedded
  // newlines are legal payload here and must be rejected, not split.
  const std::string line(reinterpret_cast<const char*>(data), size);

  sqvae::serve::WireRequest request;
  std::string error;
  const bool ok = sqvae::serve::parse_request_line(line, &request, &error);

  if (ok) {
    // Accepted requests must carry a valid op and survive formatting.
    if (!request.is_stats && request.op.empty()) __builtin_trap();
    sqvae::serve::InferenceResult result;
    result.ok = true;
    result.values = request.x;
    const std::string response =
        sqvae::serve::format_response(request, result);
    // The echoed values must read back exactly: feed the "y" array (and
    // the response's closing brace) back through the parser as a payload.
    const std::size_t at = response.find("\"y\": [");
    if (at == std::string::npos) __builtin_trap();
    sqvae::serve::WireRequest again;
    if (!sqvae::serve::parse_request_line(
            "{\"op\": \"decode\", \"x\": " + response.substr(at + 5),
            &again, &error)) {
      __builtin_trap();
    }
    if (again.x.size() != request.x.size()) __builtin_trap();
    if (!request.x.empty() &&
        std::memcmp(again.x.data(), request.x.data(),
                    request.x.size() * sizeof(double)) != 0) {
      __builtin_trap();
    }
  } else {
    // Rejections must explain themselves (blank lines excepted).
    (void)sqvae::serve::format_parse_error(error);
  }
  return 0;
}
