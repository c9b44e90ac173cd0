#include "baselines/two_stage.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/profile.h"
#include "vertica/copy_stream.h"
#include "vertica/session.h"

namespace fabric::baselines {

Result<TwoStageTiming> TwoStageSave(sim::Process& driver,
                                    spark::SparkSession* /*spark*/,
                                    hdfs::HdfsCluster* hdfs,
                                    vertica::Database* db,
                                    const spark::DataFrame& frame,
                                    const std::string& landing_path,
                                    const std::string& target_table) {
  TwoStageTiming timing;

  // ---- Stage 1: Spark writes the full DataFrame to the landing zone.
  double start = driver.Now();
  FABRIC_RETURN_IF_ERROR(frame.Write()
                             .Format("parquet")
                             .Option("path", landing_path)
                             .Mode(spark::SaveMode::kOverwrite)
                             .Save(driver));
  timing.stage1_write = driver.Now() - start;

  // ---- Stage 2: Vertica loads the staged files. One bracketing
  // transaction (the BEGIN ... END the Redshift connector issues); each
  // file part is pulled from its datanode over the external network into
  // a Vertica node, round-robin.
  start = driver.Now();
  if (!db->catalog().HasTable(target_table)) {
    FABRIC_ASSIGN_OR_RETURN(std::unique_ptr<vertica::Session> ddl,
                            db->Connect(driver, 0, nullptr));
    FABRIC_RETURN_IF_ERROR(
        ddl->Execute(driver, StrCat("CREATE TABLE ", target_table, " (",
                                    frame.schema().ToDdlBody(), ")"))
            .status());
    FABRIC_RETURN_IF_ERROR(ddl->Close(driver));
  }

  // Collect the staged part files.
  std::vector<std::string> parts;
  for (int p = 0;; ++p) {
    std::string part = StrCat(landing_path, "/part-", p);
    if (!hdfs->Exists(part)) break;
    parts.push_back(part);
  }
  if (parts.empty()) {
    return NotFoundError(
        StrCat("no staged files under '", landing_path, "'"));
  }

  // Parallel loaders (several COPY streams per node, like the parallel
  // COPY baseline), each atomic per connection; the paper's 2-stage
  // approach brackets the whole sequence.
  int nodes = db->num_nodes();
  int loaders = std::min<int>(static_cast<int>(parts.size()), nodes * 8);
  auto statuses = std::make_shared<std::vector<Status>>(loaders,
                                                        Status::OK());
  sim::Latch done(db->engine(), loaders);
  for (int l = 0; l < loaders; ++l) {
    int n = l % nodes;
    std::vector<std::string> my_parts;
    for (size_t i = l; i < parts.size(); i += loaders) {
      my_parts.push_back(parts[i]);
    }
    db->engine()->Spawn(
        StrCat("twostage-load-", l),
        [db, hdfs, n, l, my_parts, target_table, statuses,
         &done](sim::Process& loader) {
          Status status = [&]() -> Status {
            FABRIC_ASSIGN_OR_RETURN(
                std::unique_ptr<vertica::Session> session,
                db->Connect(loader, n, nullptr));
            FABRIC_RETURN_IF_ERROR(
                session->Execute(loader, "BEGIN").status());
            FABRIC_ASSIGN_OR_RETURN(
                std::unique_ptr<vertica::CopyStream> stream,
                vertica::CopyStream::Open(loader, session.get(),
                                          target_table,
                                          vertica::CopyStream::Options{}));
            for (const std::string& part : my_parts) {
              FABRIC_ASSIGN_OR_RETURN(const hdfs::HdfsCluster::File* file,
                                      hdfs->GetFile(part));
              for (int b = 0;
                   b < static_cast<int>(file->blocks.size()); ++b) {
                // Pull the block from HDFS into the node...
                FABRIC_ASSIGN_OR_RETURN(
                    std::vector<storage::Row> rows,
                    hdfs->ReadBlock(loader, part, b,
                                    db->node_host(n)));
                // ...and feed it into the bulk-load path.
                std::vector<storage::Row> rejects;
                FABRIC_ASSIGN_OR_RETURN(
                    storage::LaneViewRows batch,
                    storage::FromRows(stream->schema(), rows, &rejects));
                FABRIC_RETURN_IF_ERROR(stream->WriteBatch(
                    loader, std::move(batch), std::move(rejects)));
              }
            }
            FABRIC_RETURN_IF_ERROR(stream->Finish(loader).status());
            return session->Execute(loader, "COMMIT").status();
          }();
          (*statuses)[l] = status;
          done.CountDown();
        });
  }
  FABRIC_RETURN_IF_ERROR(done.Await(driver));
  for (const Status& status : *statuses) {
    FABRIC_RETURN_IF_ERROR(status);
  }
  timing.stage2_load = driver.Now() - start;
  return timing;
}

}  // namespace fabric::baselines
