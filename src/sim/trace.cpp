#include "sim/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ooc {
namespace {

char kindCode(TraceEvent::Kind kind) noexcept {
  switch (kind) {
    case TraceEvent::Kind::kStart: return 'S';
    case TraceEvent::Kind::kDeliver: return 'D';
    case TraceEvent::Kind::kTimer: return 'T';
    case TraceEvent::Kind::kControl: return 'C';
    case TraceEvent::Kind::kBarrier: return 'B';
    case TraceEvent::Kind::kDecision: return 'V';
    case TraceEvent::Kind::kCrash: return 'X';
    case TraceEvent::Kind::kRestart: return 'R';
  }
  return '?';
}

TraceEvent::Kind parseKind(char code) {
  switch (code) {
    case 'S': return TraceEvent::Kind::kStart;
    case 'D': return TraceEvent::Kind::kDeliver;
    case 'T': return TraceEvent::Kind::kTimer;
    case 'C': return TraceEvent::Kind::kControl;
    case 'B': return TraceEvent::Kind::kBarrier;
    case 'V': return TraceEvent::Kind::kDecision;
    case 'X': return TraceEvent::Kind::kCrash;
    case 'R': return TraceEvent::Kind::kRestart;
  }
  throw std::runtime_error(std::string("trace: unknown event kind '") + code +
                           "'");
}

}  // namespace

void TraceVerifier::onEvent(const TraceEvent& event) {
  if (divergence_) return;
  if (position_ >= expected_.events.size()) {
    divergence_ = "replay produced extra event #" +
                  std::to_string(position_) + ": " + toString(event);
    ++position_;
    return;
  }
  const TraceEvent& want = expected_.events[position_];
  if (!(event == want)) {
    divergence_ = "divergence at event #" + std::to_string(position_) +
                  ": expected " + toString(want) + ", got " + toString(event);
  }
  ++position_;
}

std::string toString(const TraceEvent& event) {
  std::ostringstream os;
  os << kindCode(event.kind) << " @" << event.at << " a=" << event.a
     << " b=" << event.b << " aux=" << event.aux;
  return os.str();
}

void serializeTrace(const Trace& trace, std::ostream& out) {
  out << "events " << trace.events.size() << "\n";
  for (const TraceEvent& event : trace.events) {
    out << "e " << event.at << ' ' << kindCode(event.kind) << ' ' << event.a
        << ' ' << event.b << ' ' << event.aux << "\n";
  }
  out << "stats sent=" << trace.messagesSent
      << " delivered=" << trace.messagesDelivered
      << " executed=" << trace.eventsProcessed << " end=" << trace.endTick
      << "\n";
}

Trace parseTrace(std::istream& in) {
  Trace trace;
  std::string word;
  if (!(in >> word) || word != "events")
    throw std::runtime_error("trace: expected 'events' header");
  std::size_t count = 0;
  if (!(in >> count)) throw std::runtime_error("trace: bad event count");
  // The count is untrusted input: reserve at most a bounded prefix and let
  // the event lines themselves prove the rest.
  trace.events.reserve(std::min<std::size_t>(count, 1u << 16));
  for (std::size_t i = 0; i < count; ++i) {
    char code = 0;
    TraceEvent event;
    if (!(in >> word) || word != "e" || !(in >> event.at >> code >> event.a >>
                                          event.b >> event.aux)) {
      throw std::runtime_error("trace: bad event line #" + std::to_string(i));
    }
    event.kind = parseKind(code);
    trace.events.push_back(event);
  }
  if (!(in >> word) || word != "stats")
    throw std::runtime_error("trace: expected 'stats' line");
  auto field = [&](const char* name) {
    std::string token;
    if (!(in >> token))
      throw std::runtime_error("trace: truncated stats line");
    const auto eq = token.find('=');
    if (eq == std::string::npos || token.substr(0, eq) != name)
      throw std::runtime_error("trace: expected stats field " +
                               std::string(name));
    return std::stoull(token.substr(eq + 1));
  };
  trace.messagesSent = field("sent");
  trace.messagesDelivered = field("delivered");
  trace.eventsProcessed = field("executed");
  trace.endTick = field("end");
  return trace;
}

}  // namespace ooc
