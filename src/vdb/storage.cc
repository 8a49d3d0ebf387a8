#include "vdb/storage.h"

#include "common/str_util.h"

namespace hyperq::vdb {

void Table::Append(std::shared_ptr<const ColumnBatch> more) {
  if (more->rows == 0) return;
  data = data->rows == 0 ? std::move(more) : ConcatBatches({data, more});
}

int Table::FindColumn(const std::string& col_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, col_name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<SqlType> Table::ColumnTypes() const {
  std::vector<SqlType> types;
  types.reserve(columns.size());
  for (const auto& c : columns) types.push_back(c.type);
  return types;
}

std::string Storage::Key(const std::string& name) {
  auto pos = name.rfind('.');
  return ToUpper(pos == std::string::npos ? name : name.substr(pos + 1));
}

Status Storage::CreateTable(const std::string& name,
                            std::vector<TableColumn> columns) {
  std::string key = Key(name);
  if (tables_.count(key)) {
    return Status::CatalogError("table '", name, "' already exists");
  }
  auto table = std::make_unique<Table>();
  table->name = key;
  table->columns = std::move(columns);
  table->data = BatchBuilder(table->ColumnTypes()).Finish();
  tables_.emplace(std::move(key), std::move(table));
  return Status::OK();
}

Status Storage::DropTable(const std::string& name, bool if_exists) {
  if (tables_.erase(Key(name)) == 0 && !if_exists) {
    return Status::CatalogError("table '", name, "' does not exist");
  }
  return Status::OK();
}

Result<Table*> Storage::GetTable(const std::string& name) {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::CatalogError("table '", name, "' does not exist");
  }
  return it->second.get();
}

bool Storage::HasTable(const std::string& name) const {
  return tables_.count(Key(name)) > 0;
}

}  // namespace hyperq::vdb
