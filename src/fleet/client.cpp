#include "fleet/client.hpp"

#include "net/protocol.hpp"
#include "relay/relay.hpp"
#include "serve/cluster.hpp"
#include "util/byte_io.hpp"

namespace bees::fleet {

ReplyStatus classify_reply(const std::vector<std::uint8_t>& reply) {
  try {
    const net::Envelope env = net::open_envelope(reply);
    if (env.type != net::MessageType::kError) return ReplyStatus::kOk;
    // Overload sheds and relay outages are both transient: back off and
    // resend.  Anything else is terminal.
    const std::string message = net::decode_error(env.payload);
    return (message == serve::kShedErrorMessage ||
            message == relay::kRelayUnavailableMessage)
               ? ReplyStatus::kShed
               : ReplyStatus::kError;
  } catch (const util::DecodeError&) {
    return ReplyStatus::kError;
  }
}

}  // namespace bees::fleet
