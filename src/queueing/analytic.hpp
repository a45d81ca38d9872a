// Closed-form queueing results: M/M/1, M/M/c (Erlang C) and M/G/1
// (Pollaczek-Khinchine). These give the analytic predictions the in-depth
// modeling literature (Liu '05, Kamra '04) relies on; M/M/1 is the oracle
// the SQS ablation (bench_ablation_sqs) checks its fleet simulation against.
#pragma once

#include <cstdint>

namespace kooza::queueing {

/// Steady-state metrics of a single queueing station.
struct StationMetrics {
    double utilization = 0.0;      ///< rho
    double mean_queue_length = 0.0;  ///< Lq: jobs waiting (excluding in service)
    double mean_jobs = 0.0;          ///< L: jobs in system
    double mean_wait = 0.0;          ///< Wq: time waiting
    double mean_response = 0.0;      ///< W: wait + service
};

/// M/M/1 with arrival rate lambda and service rate mu. Requires
/// lambda < mu (stability); throws std::invalid_argument otherwise.
[[nodiscard]] StationMetrics mm1(double lambda, double mu);

/// M/M/c with c identical servers. Requires lambda < c*mu.
[[nodiscard]] StationMetrics mmc(double lambda, double mu, std::uint32_t c);

/// Erlang-C probability that an arrival must wait in an M/M/c.
[[nodiscard]] double erlang_c(double lambda, double mu, std::uint32_t c);

/// M/G/1 via Pollaczek-Khinchine. `mean_service` and `service_scv` are the
/// mean and squared coefficient of variation (var/mean^2) of the service
/// distribution. Requires lambda * mean_service < 1.
[[nodiscard]] StationMetrics mg1(double lambda, double mean_service, double service_scv);

}  // namespace kooza::queueing
