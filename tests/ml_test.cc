#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "connector/default_source.h"
#include "connector/model_deploy.h"
#include "mllib/mllib.h"
#include "net/network.h"
#include "pmml/model.h"
#include "pmml/xml.h"
#include "sim/engine.h"
#include "spark/dataframe.h"
#include "vertica/database.h"
#include "vertica/session.h"

namespace fabric {
namespace {

using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

TEST(XmlTest, RoundTripsDocument) {
  pmml::XmlElement root;
  root.name = "PMML";
  root.attributes["version"] = "4.1";
  auto child = std::make_unique<pmml::XmlElement>();
  child->name = "Array";
  child->attributes["n"] = "2";
  child->text = "1.5 <escaped> & \"quoted\"";
  root.children.push_back(std::move(child));
  std::string xml = root.ToString();
  auto parsed = pmml::ParseXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)->name, "PMML");
  EXPECT_EQ((*parsed)->Attr("version"), "4.1");
  const pmml::XmlElement* array = (*parsed)->Child("Array");
  ASSERT_NE(array, nullptr);
  EXPECT_EQ(array->text, "1.5 <escaped> & \"quoted\"");
}

TEST(XmlTest, ParsesPrologAndSelfClosing) {
  auto parsed = pmml::ParseXml(
      "<?xml version=\"1.0\"?>\n<a x='1'><b/><b y=\"2\"/></a>");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)->Children("b").size(), 2u);
  EXPECT_EQ((*parsed)->Children("b")[1]->Attr("y"), "2");
}

TEST(XmlTest, RejectsMalformed) {
  EXPECT_FALSE(pmml::ParseXml("<a><b></a>").ok());
  EXPECT_FALSE(pmml::ParseXml("<a").ok());
  EXPECT_FALSE(pmml::ParseXml("<a x=1></a>").ok());
  EXPECT_FALSE(pmml::ParseXml("<a></a><b></b>").ok());
}

TEST(PmmlTest, LinearRegressionRoundTrip) {
  pmml::PmmlModel model;
  model.kind = pmml::PmmlModel::Kind::kLinearRegression;
  model.name = "m1";
  model.feature_names = {"x1", "x2"};
  model.coefficients = {2.0, -0.5};
  model.intercept = 1.0;
  auto parsed = pmml::PmmlModel::FromXml(model.ToXml());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->kind, pmml::PmmlModel::Kind::kLinearRegression);
  EXPECT_EQ(parsed->name, "m1");
  EXPECT_EQ(parsed->feature_names, model.feature_names);
  EXPECT_DOUBLE_EQ(parsed->Evaluate({3.0, 2.0}).value(),
                   1.0 + 6.0 - 1.0);
}

TEST(PmmlTest, LogisticRegressionRoundTrip) {
  pmml::PmmlModel model;
  model.kind = pmml::PmmlModel::Kind::kLogisticRegression;
  model.name = "logit";
  model.feature_names = {"x"};
  model.coefficients = {1.0};
  model.intercept = 0.0;
  auto parsed = pmml::PmmlModel::FromXml(model.ToXml());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->kind, pmml::PmmlModel::Kind::kLogisticRegression);
  EXPECT_NEAR(parsed->Evaluate({0.0}).value(), 0.5, 1e-12);
  EXPECT_GT(parsed->Evaluate({5.0}).value(), 0.99);
}

TEST(PmmlTest, KMeansRoundTrip) {
  pmml::PmmlModel model;
  model.kind = pmml::PmmlModel::Kind::kKMeans;
  model.name = "km";
  model.feature_names = {"a", "b"};
  model.centers = {{0.0, 0.0}, {10.0, 10.0}};
  auto parsed = pmml::PmmlModel::FromXml(model.ToXml());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->centers.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->Evaluate({1.0, 1.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(parsed->Evaluate({9.0, 8.0}).value(), 1.0);
}

TEST(PmmlTest, EvaluateChecksArity) {
  pmml::PmmlModel model;
  model.kind = pmml::PmmlModel::Kind::kLinearRegression;
  model.feature_names = {"x"};
  model.coefficients = {1.0};
  EXPECT_FALSE(model.Evaluate({1.0, 2.0}).ok());
}

// ----------------------------------------------------- mllib on Spark

class MlTest : public ::testing::Test {
 protected:
  MlTest() : network_(&engine_) {
    vertica::Database::Options vopts;
    vopts.num_nodes = 4;
    db_ = std::make_unique<vertica::Database>(&engine_, &network_, vopts);
    spark::SparkCluster::Options sopts;
    sopts.num_workers = 4;
    cluster_ = std::make_unique<spark::SparkCluster>(&engine_, &network_,
                                                     sopts);
    session_ = std::make_unique<spark::SparkSession>(cluster_.get());
    connector::RegisterVerticaSource(session_.get(), db_.get());
    connector::RegisterPmmlPredict(db_.get());
  }

  void RunDriver(std::function<void(sim::Process&)> body) {
    engine_.Spawn("driver", std::move(body));
    Status status = engine_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  sim::Engine engine_;
  net::Network network_;
  std::unique_ptr<vertica::Database> db_;
  std::unique_ptr<spark::SparkCluster> cluster_;
  std::unique_ptr<spark::SparkSession> session_;
};

TEST_F(MlTest, LinearRegressionLearnsLine) {
  RunDriver([&](sim::Process& driver) {
    // y = 2x + 1 with slight noise.
    Rng rng(7);
    std::vector<Row> rows;
    for (int i = 0; i < 200; ++i) {
      double x = rng.NextDouble() * 4 - 2;
      double y = 2 * x + 1 + (rng.NextDouble() - 0.5) * 0.01;
      rows.push_back({Value::Float64(x), Value::Float64(y)});
    }
    Schema schema({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}});
    auto df = session_->CreateDataFrame(schema, rows, 4);
    ASSERT_TRUE(df.ok());
    mllib::TrainConfig config;
    config.iterations = 500;
    config.learning_rate = 0.3;
    auto model =
        mllib::TrainLinearRegression(driver, *df, {"x"}, "y", config);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_NEAR(model->weights[0], 2.0, 0.05);
    EXPECT_NEAR(model->intercept, 1.0, 0.05);
  });
}

TEST_F(MlTest, LogisticRegressionSeparatesClasses) {
  RunDriver([&](sim::Process& driver) {
    Rng rng(11);
    std::vector<Row> rows;
    for (int i = 0; i < 300; ++i) {
      double x = rng.NextDouble() * 8 - 4;
      double label = x > 0 ? 1.0 : 0.0;
      rows.push_back({Value::Float64(x), Value::Float64(label)});
    }
    Schema schema({{"x", DataType::kFloat64},
                   {"label", DataType::kFloat64}});
    auto df = session_->CreateDataFrame(schema, rows, 4);
    ASSERT_TRUE(df.ok());
    mllib::TrainConfig config;
    config.iterations = 400;
    config.learning_rate = 0.5;
    auto model = mllib::TrainLogisticRegression(driver, *df, {"x"},
                                                "label", config);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_GT(model->Predict({3.0}), 0.9);
    EXPECT_LT(model->Predict({-3.0}), 0.1);
  });
}

TEST_F(MlTest, KMeansFindsWellSeparatedClusters) {
  RunDriver([&](sim::Process& driver) {
    Rng rng(13);
    std::vector<Row> rows;
    for (int i = 0; i < 150; ++i) {
      double cx = (i % 3) * 10.0;
      rows.push_back({Value::Float64(cx + rng.NextDouble()),
                      Value::Float64(cx - rng.NextDouble())});
    }
    Schema schema({{"a", DataType::kFloat64}, {"b", DataType::kFloat64}});
    auto df = session_->CreateDataFrame(schema, rows, 4);
    ASSERT_TRUE(df.ok());
    auto model = mllib::TrainKMeans(driver, *df, {"a", "b"}, 3);
    ASSERT_TRUE(model.ok()) << model.status();
    // Three clusters near (0,0), (10,10), (20,20).
    std::set<int> assignments;
    assignments.insert(model->PredictCluster({0.5, -0.5}));
    assignments.insert(model->PredictCluster({10.5, 9.5}));
    assignments.insert(model->PredictCluster({20.5, 19.5}));
    EXPECT_EQ(assignments.size(), 3u);
  });
}

TEST_F(MlTest, DeployAndScoreInDatabase) {
  RunDriver([&](sim::Process& driver) {
    // Train in Spark, deploy to Vertica, score via SQL — the full MD
    // loop, with parity between in-Spark and in-database predictions.
    Rng rng(3);
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      double x1 = rng.NextDouble() * 2;
      double x2 = rng.NextDouble() * 2;
      double y = 3 * x1 - x2 + 0.5;
      rows.push_back({Value::Float64(x1), Value::Float64(x2),
                      Value::Float64(y)});
    }
    Schema schema({{"x1", DataType::kFloat64},
                   {"x2", DataType::kFloat64},
                   {"y", DataType::kFloat64}});
    auto df = session_->CreateDataFrame(schema, rows, 4);
    ASSERT_TRUE(df.ok());
    mllib::TrainConfig config;
    config.iterations = 800;
    config.learning_rate = 0.3;
    auto trained =
        mllib::TrainLinearRegression(driver, *df, {"x1", "x2"}, "y",
                                     config);
    ASSERT_TRUE(trained.ok());
    pmml::PmmlModel model = trained->ToPmml("regression");
    ASSERT_TRUE(connector::DeployPmmlModel(driver, db_.get(),
                                           &cluster_->driver_host(), model)
                    .ok());

    // Models are listed and retrievable.
    auto names = connector::ListPmmlModels(driver, db_.get());
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(*names, std::vector<std::string>{"regression"});
    auto fetched = connector::GetPmml(driver, db_.get(), "regression");
    ASSERT_TRUE(fetched.ok());

    // Put the feature table into Vertica and score it there.
    auto features = df->Select({"x1", "x2"});
    ASSERT_TRUE(features.ok());
    ASSERT_TRUE(features->Write()
                    .Format(connector::kVerticaSourceName)
                    .Option("table", "iris")
                    .Option("numpartitions", 4)
                    .Mode(spark::SaveMode::kOverwrite)
                    .Save(driver)
                    .ok());
    auto vsession = db_->Connect(driver, 0, &cluster_->driver_host());
    ASSERT_TRUE(vsession.ok());
    auto scored = (*vsession)->Execute(
        driver,
        "SELECT x1, x2, PMMLPredict(x1, x2 USING PARAMETERS "
        "model_name='regression') AS score FROM iris");
    ASSERT_TRUE(scored.ok()) << scored.status();
    ASSERT_EQ(scored->rows.size(), 100u);
    for (const Row& row : scored->rows) {
      double expected = trained->Predict(
          {row[0].float64_value(), row[1].float64_value()});
      EXPECT_NEAR(row[2].float64_value(), expected, 1e-9);
    }
    // Unknown model errors cleanly.
    auto missing = (*vsession)->Execute(
        driver,
        "SELECT PMMLPredict(x1 USING PARAMETERS model_name='nope') "
        "FROM iris");
    EXPECT_FALSE(missing.ok());
    ASSERT_TRUE((*vsession)->Close(driver).ok());
  });
}

TEST_F(MlTest, RedeployReplacesModel) {
  RunDriver([&](sim::Process& driver) {
    pmml::PmmlModel v1;
    v1.kind = pmml::PmmlModel::Kind::kLinearRegression;
    v1.name = "m";
    v1.feature_names = {"x"};
    v1.coefficients = {1.0};
    ASSERT_TRUE(connector::DeployPmmlModel(driver, db_.get(), nullptr, v1)
                    .ok());
    pmml::PmmlModel v2 = v1;
    v2.coefficients = {5.0};
    ASSERT_TRUE(connector::DeployPmmlModel(driver, db_.get(), nullptr, v2)
                    .ok());
    auto names = connector::ListPmmlModels(driver, db_.get());
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(names->size(), 1u);
    auto fetched = connector::GetPmml(driver, db_.get(), "m");
    ASSERT_TRUE(fetched.ok());
    EXPECT_DOUBLE_EQ(fetched->coefficients[0], 5.0);
  });
}

// PMMLPredict reuses a parsed model only while its DFS blob is
// unchanged: a redeploy between two queries changes the scores.
TEST_F(MlTest, RedeployBetweenQueriesChangesScores) {
  RunDriver([&](sim::Process& driver) {
    auto vsession = db_->Connect(driver, 0, nullptr);
    ASSERT_TRUE(vsession.ok());
    ASSERT_TRUE((*vsession)
                    ->Execute(driver,
                              "CREATE TABLE pts (x FLOAT) UNSEGMENTED ALL "
                              "NODES")
                    .ok());
    ASSERT_TRUE(
        (*vsession)->Execute(driver, "INSERT INTO pts VALUES (1), (2)").ok());
    pmml::PmmlModel model;
    model.kind = pmml::PmmlModel::Kind::kLinearRegression;
    model.name = "m";
    model.feature_names = {"x"};
    auto scores = [&](double coefficient) {
      model.coefficients = {coefficient};
      EXPECT_TRUE(
          connector::DeployPmmlModel(driver, db_.get(), nullptr, model).ok());
      auto scored = (*vsession)->Execute(
          driver,
          "SELECT x, PMMLPredict(x USING PARAMETERS model_name='m') FROM "
          "pts ORDER BY x");
      EXPECT_TRUE(scored.ok()) << scored.status();
      std::vector<double> out;
      if (!scored.ok()) return out;
      for (const Row& row : scored->rows) {
        out.push_back(row[1].float64_value());
      }
      return out;
    };
    EXPECT_EQ(scores(1.0), (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(scores(5.0), (std::vector<double>{5.0, 10.0}));
    EXPECT_EQ(scores(1.0), (std::vector<double>{1.0, 2.0}));
    ASSERT_TRUE((*vsession)->Close(driver).ok());
  });
}

}  // namespace
}  // namespace fabric
