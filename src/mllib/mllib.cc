#include "mllib/mllib.h"

#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "net/host.h"

namespace fabric::mllib {

using storage::Row;

namespace {

struct TrainingData {
  std::vector<std::vector<double>> features;  // n x d
  std::vector<double> labels;                 // n (empty for clustering)
};

// Materializes the DataFrame (a real Spark job with transfer costs) and
// extracts numeric matrices.
Result<TrainingData> Materialize(
    sim::Process& driver, const spark::DataFrame& data,
    const std::vector<std::string>& feature_columns,
    const std::string& label_column) {
  std::vector<int> feature_idx;
  for (const std::string& name : feature_columns) {
    FABRIC_ASSIGN_OR_RETURN(int idx, data.schema().IndexOf(name));
    feature_idx.push_back(idx);
  }
  int label_idx = -1;
  if (!label_column.empty()) {
    FABRIC_ASSIGN_OR_RETURN(label_idx, data.schema().IndexOf(label_column));
  }
  FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows, data.Collect(driver));
  if (rows.empty()) return InvalidArgumentError("no training rows");
  TrainingData out;
  for (const Row& row : rows) {
    std::vector<double> features;
    bool skip = false;
    for (int idx : feature_idx) {
      auto v = row[idx].AsDouble();
      if (!v.ok()) {
        skip = true;  // rows with NULL/non-numeric features are dropped
        break;
      }
      features.push_back(*v);
    }
    if (skip) continue;
    if (label_idx >= 0) {
      auto label = row[label_idx].AsDouble();
      if (!label.ok()) continue;
      out.labels.push_back(*label);
    }
    out.features.push_back(std::move(features));
  }
  if (out.features.empty()) {
    return InvalidArgumentError("no usable (fully numeric) training rows");
  }
  return out;
}

// Charges driver-side training CPU proportional to the work.
Status ChargeTraining(sim::Process& driver, const spark::DataFrame& data,
                      double flops) {
  spark::SparkCluster* cluster = data.session()->cluster();
  return net::RunCpu(driver, cluster->network(), cluster->driver_host(),
                     flops * 1e-9);
}

Result<RegressionModel> TrainGd(sim::Process& driver,
                                const spark::DataFrame& data,
                                const std::vector<std::string>& features,
                                const std::string& label,
                                const TrainConfig& config, bool logistic) {
  FABRIC_ASSIGN_OR_RETURN(TrainingData training,
                          Materialize(driver, data, features, label));
  size_t n = training.features.size();
  size_t d = features.size();
  FABRIC_RETURN_IF_ERROR(ChargeTraining(
      driver, data,
      static_cast<double>(config.iterations) * n * d * 4));

  RegressionModel model;
  model.feature_names = features;
  model.weights.assign(d, 0.0);
  model.logistic = logistic;
  for (int iteration = 0; iteration < config.iterations; ++iteration) {
    std::vector<double> gradient(d, 0.0);
    double intercept_gradient = 0;
    for (size_t i = 0; i < n; ++i) {
      double prediction = model.Predict(training.features[i]);
      double error = prediction - training.labels[i];
      for (size_t j = 0; j < d; ++j) {
        gradient[j] += error * training.features[i][j];
      }
      intercept_gradient += error;
    }
    double step = config.learning_rate / static_cast<double>(n);
    for (size_t j = 0; j < d; ++j) {
      model.weights[j] -= step * gradient[j];
    }
    model.intercept -= step * intercept_gradient;
  }
  return model;
}

}  // namespace

double RegressionModel::Predict(const std::vector<double>& features) const {
  double z = intercept;
  for (size_t i = 0; i < weights.size(); ++i) {
    z += weights[i] * features[i];
  }
  return logistic ? 1.0 / (1.0 + std::exp(-z)) : z;
}

pmml::PmmlModel RegressionModel::ToPmml(const std::string& name) const {
  pmml::PmmlModel model;
  model.kind = logistic ? pmml::PmmlModel::Kind::kLogisticRegression
                        : pmml::PmmlModel::Kind::kLinearRegression;
  model.name = name;
  model.feature_names = feature_names;
  model.coefficients = weights;
  model.intercept = intercept;
  return model;
}

int KMeansModel::PredictCluster(const std::vector<double>& features) const {
  int best = -1;
  double best_distance = 0;
  for (size_t c = 0; c < centers.size(); ++c) {
    double distance = 0;
    for (size_t i = 0; i < features.size(); ++i) {
      double diff = features[i] - centers[c][i];
      distance += diff * diff;
    }
    if (best < 0 || distance < best_distance) {
      best = static_cast<int>(c);
      best_distance = distance;
    }
  }
  return best;
}

Result<RegressionModel> TrainLinearRegression(
    sim::Process& driver, const spark::DataFrame& data,
    const std::vector<std::string>& feature_columns,
    const std::string& label_column, const TrainConfig& config) {
  return TrainGd(driver, data, feature_columns, label_column, config,
                 /*logistic=*/false);
}

Result<RegressionModel> TrainLogisticRegression(
    sim::Process& driver, const spark::DataFrame& data,
    const std::vector<std::string>& feature_columns,
    const std::string& label_column, const TrainConfig& config) {
  return TrainGd(driver, data, feature_columns, label_column, config,
                 /*logistic=*/true);
}

Result<KMeansModel> TrainKMeans(
    sim::Process& driver, const spark::DataFrame& data,
    const std::vector<std::string>& feature_columns, int k,
    const TrainConfig& config) {
  if (k <= 0) return InvalidArgumentError("k must be positive");
  FABRIC_ASSIGN_OR_RETURN(
      TrainingData training,
      Materialize(driver, data, feature_columns, /*label=*/""));
  size_t n = training.features.size();
  size_t d = feature_columns.size();
  if (static_cast<size_t>(k) > n) {
    return InvalidArgumentError("k exceeds the number of rows");
  }
  FABRIC_RETURN_IF_ERROR(ChargeTraining(
      driver, data,
      static_cast<double>(config.iterations) * n * d * k * 3));

  KMeansModel model;
  model.feature_names = feature_columns;
  // Initialize with k distinct random rows.
  Rng rng(config.seed);
  std::vector<size_t> chosen;
  while (chosen.size() < static_cast<size_t>(k)) {
    size_t candidate = rng.NextUint64(n);
    bool duplicate = false;
    for (size_t used : chosen) duplicate = duplicate || used == candidate;
    if (!duplicate) chosen.push_back(candidate);
  }
  for (size_t idx : chosen) model.centers.push_back(training.features[idx]);

  std::vector<int> assignment(n, -1);
  for (int iteration = 0; iteration < config.iterations; ++iteration) {
    bool moved = false;
    for (size_t i = 0; i < n; ++i) {
      int cluster = model.PredictCluster(training.features[i]);
      if (cluster != assignment[i]) {
        assignment[i] = cluster;
        moved = true;
      }
    }
    if (!moved) break;
    std::vector<std::vector<double>> sums(k, std::vector<double>(d, 0.0));
    std::vector<int> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      ++counts[assignment[i]];
      for (size_t j = 0; j < d; ++j) {
        sums[assignment[i]][j] += training.features[i][j];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its center
      for (size_t j = 0; j < d; ++j) {
        model.centers[c][j] = sums[c][j] / counts[c];
      }
    }
  }
  return model;
}

}  // namespace fabric::mllib
