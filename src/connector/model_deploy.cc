#include "connector/model_deploy.h"

#include <map>
#include <memory>

#include "common/string_util.h"
#include "vertica/session.h"

namespace fabric::connector {

using storage::Value;
using vertica::QueryResult;

namespace {

std::string DfsPath(const std::string& name) {
  return StrCat("/pmml/", name, ".xml");
}

}  // namespace

Status DeployPmmlModel(sim::Process& self, vertica::Database* db,
                       const net::Host* client,
                       const pmml::PmmlModel& model) {
  if (model.name.empty()) {
    return InvalidArgumentError("model needs a name");
  }
  std::string xml = model.ToXml();
  FABRIC_ASSIGN_OR_RETURN(std::unique_ptr<vertica::Session> session,
                          db->Connect(self, 0, client));
  // Ship the document; PMML models are small, so this is cheap.
  if (client != nullptr) {
    FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
        self, {client->ext_egress, db->node_host(0).ext_ingress},
        static_cast<double>(xml.size())));
  }
  FABRIC_RETURN_IF_ERROR(
      session->Execute(self, StrCat("CREATE TABLE IF NOT EXISTS ",
                                    kModelMetadataTable,
                                    " (name VARCHAR, kind VARCHAR, "
                                    "size INTEGER, features INTEGER) "
                                    "UNSEGMENTED ALL NODES"))
          .status());
  // Redeploying replaces the metadata row and the DFS blob.
  FABRIC_RETURN_IF_ERROR(
      session->Execute(self, StrCat("DELETE FROM ", kModelMetadataTable,
                                    " WHERE name = '", model.name, "'"))
          .status());
  FABRIC_RETURN_IF_ERROR(
      session->Execute(
                 self,
                 StrCat("INSERT INTO ", kModelMetadataTable, " VALUES ('",
                        model.name, "', '", PmmlKindName(model.kind),
                        "', ", xml.size(), ", ",
                        model.feature_names.size(), ")"))
          .status());
  db->MarkScaleExempt(kModelMetadataTable);
  FABRIC_RETURN_IF_ERROR(db->dfs().Put(DfsPath(model.name), xml));
  return session->Close(self);
}

Result<pmml::PmmlModel> GetPmml(sim::Process& self, vertica::Database* db,
                                const std::string& name) {
  FABRIC_RETURN_IF_ERROR(self.CheckAlive());
  FABRIC_ASSIGN_OR_RETURN(std::string xml, db->dfs().Get(DfsPath(name)));
  return pmml::PmmlModel::FromXml(xml);
}

Result<std::vector<std::string>> ListPmmlModels(sim::Process& self,
                                                vertica::Database* db) {
  FABRIC_ASSIGN_OR_RETURN(std::unique_ptr<vertica::Session> session,
                          db->Connect(self, 0, nullptr));
  if (!db->catalog().HasTable(kModelMetadataTable)) {
    FABRIC_RETURN_IF_ERROR(session->Close(self));
    return std::vector<std::string>{};
  }
  FABRIC_ASSIGN_OR_RETURN(
      QueryResult result,
      session->Execute(self, StrCat("SELECT name FROM ",
                                    kModelMetadataTable,
                                    " ORDER BY name")));
  FABRIC_RETURN_IF_ERROR(session->Close(self));
  std::vector<std::string> names;
  for (const auto& row : result.rows) {
    names.push_back(row[0].varchar_value());
  }
  return names;
}

void RegisterPmmlPredict(vertica::Database* db) {
  // Parsed models by DFS path, each with the document it was parsed
  // from: a row reuses the model while the blob's bytes are unchanged,
  // so a redeploy is picked up at the next row.
  auto cache = std::make_shared<
      std::map<std::string, std::pair<std::string, pmml::PmmlModel>>>();
  db->RegisterScalarFunction(
      "PMMLPredict",
      [db, cache](const std::vector<Value>& args,
                  const std::map<std::string, Value>& parameters)
          -> Result<Value> {
        auto it = parameters.find("model_name");
        if (it == parameters.end() || it->second.is_null()) {
          return InvalidArgumentError(
              "PMMLPredict needs USING PARAMETERS model_name='...'");
        }
        const std::string path = DfsPath(it->second.varchar_value());
        FABRIC_ASSIGN_OR_RETURN(std::string xml, db->dfs().Get(path));
        auto cached = cache->find(path);
        if (cached == cache->end() || cached->second.first != xml) {
          FABRIC_ASSIGN_OR_RETURN(pmml::PmmlModel parsed,
                                  pmml::PmmlModel::FromXml(xml));
          cached = cache->insert_or_assign(
              path, std::pair(std::move(xml), std::move(parsed))).first;
        }
        const pmml::PmmlModel& model = cached->second.second;
        std::vector<double> features;
        features.reserve(args.size());
        for (const Value& arg : args) {
          if (arg.is_null()) return Value::Null();  // NULL in, NULL out
          FABRIC_ASSIGN_OR_RETURN(double v, arg.AsDouble());
          features.push_back(v);
        }
        FABRIC_ASSIGN_OR_RETURN(double score, model.Evaluate(features));
        return Value::Float64(score);
      });
}

}  // namespace fabric::connector
