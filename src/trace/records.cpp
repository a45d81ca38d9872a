#include "trace/records.hpp"

#include <stdexcept>
#include <string>

namespace kooza::trace {

const char* to_string(IoType t) noexcept {
    return t == IoType::kRead ? "read" : "write";
}

IoType iotype_from_string(std::string_view s) {
    if (s == "read") return IoType::kRead;
    if (s == "write") return IoType::kWrite;
    throw std::invalid_argument("iotype_from_string: '" + std::string(s) + "'");
}

const char* to_string(NetworkRecord::Direction d) noexcept {
    return d == NetworkRecord::Direction::kRx ? "rx" : "tx";
}

NetworkRecord::Direction direction_from_string(std::string_view s) {
    if (s == "rx") return NetworkRecord::Direction::kRx;
    if (s == "tx") return NetworkRecord::Direction::kTx;
    throw std::invalid_argument("direction_from_string: '" + std::string(s) + "'");
}

const char* to_string(FailureRecord::Kind k) noexcept {
    switch (k) {
        case FailureRecord::Kind::kCrash: return "crash";
        case FailureRecord::Kind::kRecover: return "recover";
        case FailureRecord::Kind::kFailover: return "failover";
        case FailureRecord::Kind::kRepair: return "repair";
        case FailureRecord::Kind::kRequestFailed: return "request_failed";
        case FailureRecord::Kind::kAdmissionReject: return "admission_reject";
    }
    return "crash";
}

FailureRecord::Kind failure_kind_from_string(std::string_view s) {
    if (s == "crash") return FailureRecord::Kind::kCrash;
    if (s == "recover") return FailureRecord::Kind::kRecover;
    if (s == "failover") return FailureRecord::Kind::kFailover;
    if (s == "repair") return FailureRecord::Kind::kRepair;
    if (s == "request_failed") return FailureRecord::Kind::kRequestFailed;
    if (s == "admission_reject") return FailureRecord::Kind::kAdmissionReject;
    throw std::invalid_argument("failure_kind_from_string: '" + std::string(s) + "'");
}

}  // namespace kooza::trace
