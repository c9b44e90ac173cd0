#include "baselines/native_copy.h"

#include <span>

#include "common/logging.h"
#include "storage/profile.h"
#include "common/string_util.h"
#include "sim/waitable.h"
#include "vertica/copy_stream.h"
#include "vertica/session.h"

namespace fabric::baselines {

Result<double> RunParallelCopy(
    sim::Process& self, vertica::Database* db, const std::string& table,
    const std::vector<std::vector<storage::Row>>& splits) {
  double started = self.Now();
  auto statuses =
      std::make_shared<std::vector<Status>>(splits.size(), Status::OK());
  sim::Latch done(db->engine(), static_cast<int>(splits.size()));
  for (size_t i = 0; i < splits.size(); ++i) {
    const std::vector<storage::Row>* rows = &splits[i];
    int node = static_cast<int>(i) % db->num_nodes();
    db->engine()->Spawn(
        StrCat("copy-part", i),
        [db, rows, node, i, statuses, &done, table](sim::Process& loader) {
          Status status = [&]() -> Status {
            // A local vsql-style client on the node itself: no external
            // network hop, data comes off the node's data disk.
            FABRIC_ASSIGN_OR_RETURN(
                std::unique_ptr<vertica::Session> session,
                db->Connect(loader, node, nullptr));
            vertica::CopyStream::Options options;
            options.from_local_disk = true;
            FABRIC_ASSIGN_OR_RETURN(
                std::unique_ptr<vertica::CopyStream> stream,
                vertica::CopyStream::Open(loader, session.get(), table,
                                          options));
            // Stream the file in ~32 MB (cost-scale) buffers so disk
            // read, parse and segment routing pipeline.
            size_t batch = rows->size();
            if (!rows->empty()) {
              double scaled_row =
                  storage::ProfileRow(rows->front()).raw_bytes *
                  db->cost().data_scale;
              if (scaled_row > 0) {
                batch = std::max<size_t>(
                    1, static_cast<size_t>(32e6 / scaled_row));
              }
            }
            for (size_t begin = 0; begin < rows->size(); begin += batch) {
              size_t end = std::min(rows->size(), begin + batch);
              std::vector<storage::Row> rejects;
              FABRIC_ASSIGN_OR_RETURN(
                  storage::LaneViewRows lanes,
                  storage::FromRows(
                      stream->schema(),
                      std::span(rows->data() + begin, end - begin),
                      &rejects));
              FABRIC_RETURN_IF_ERROR(stream->WriteBatch(
                  loader, std::move(lanes), std::move(rejects)));
            }
            FABRIC_RETURN_IF_ERROR(stream->Finish(loader).status());
            return session->Close(loader);
          }();
          (*statuses)[i] = status;
          done.CountDown();
        });
  }
  FABRIC_RETURN_IF_ERROR(done.Await(self));
  for (const Status& status : *statuses) {
    FABRIC_RETURN_IF_ERROR(status);
  }
  return self.Now() - started;
}

}  // namespace fabric::baselines
