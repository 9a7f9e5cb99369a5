// Client-side classification of serving-cluster replies: the admission
// gate's shed error (and a relay outage) is *retryable*, unlike other
// encoded errors, which are terminal.  Fleet devices back a shed reply off
// and resend it on the same RetryPolicy schedule the transport uses for
// lost messages (fleet/device.cpp).
#pragma once

#include <cstdint>
#include <vector>

namespace bees::fleet {

enum class ReplyStatus {
  kOk,     ///< A well-formed non-error reply.
  kShed,   ///< The admission gate's overload reply: back off and resend.
  kError,  ///< Any other encoded error (malformed request, ...): terminal.
};

/// Classifies a reply envelope.  Undecodable bytes classify as kError.
ReplyStatus classify_reply(const std::vector<std::uint8_t>& reply);

}  // namespace bees::fleet
