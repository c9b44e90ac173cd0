#ifndef FABRIC_MLLIB_MLLIB_H_
#define FABRIC_MLLIB_MLLIB_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "pmml/model.h"
#include "spark/dataframe.h"

namespace fabric::mllib {

// A miniature Spark MLlib (Section 2: classification, clustering,
// regression): trains on DataFrames — the reads run as real Spark jobs,
// so training data loaded through V2S pays the full transfer cost — and
// exports models as PMML (the paper's MD pipeline input).

struct TrainConfig {
  int iterations = 200;
  double learning_rate = 0.1;
  uint64_t seed = 42;  // k-means initialization
};

struct RegressionModel {
  std::vector<std::string> feature_names;
  std::vector<double> weights;
  double intercept = 0;
  bool logistic = false;

  // Linear value or class-1 probability.
  double Predict(const std::vector<double>& features) const;
  pmml::PmmlModel ToPmml(const std::string& name) const;
};

struct KMeansModel {
  std::vector<std::string> feature_names;
  std::vector<std::vector<double>> centers;

  int PredictCluster(const std::vector<double>& features) const;
};

// Gradient-descent ordinary least squares. `label` must be numeric.
Result<RegressionModel> TrainLinearRegression(
    sim::Process& driver, const spark::DataFrame& data,
    const std::vector<std::string>& feature_columns,
    const std::string& label_column, const TrainConfig& config = {});

// Gradient-descent logistic regression; labels in {0, 1}.
Result<RegressionModel> TrainLogisticRegression(
    sim::Process& driver, const spark::DataFrame& data,
    const std::vector<std::string>& feature_columns,
    const std::string& label_column, const TrainConfig& config = {});

// Lloyd's k-means.
Result<KMeansModel> TrainKMeans(
    sim::Process& driver, const spark::DataFrame& data,
    const std::vector<std::string>& feature_columns, int k,
    const TrainConfig& config = {});

}  // namespace fabric::mllib

#endif  // FABRIC_MLLIB_MLLIB_H_
