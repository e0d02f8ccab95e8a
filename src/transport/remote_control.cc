#include "transport/remote_control.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "transport/blocking_socket.h"

namespace redy::transport {

namespace {

constexpr uint32_t kControlMagic = 0x52647943;  // 'RdyC'

struct ControlHeader {
  uint32_t magic = kControlMagic;
  uint32_t type = 0;
  uint64_t payload_len = 0;
};
static_assert(sizeof(ControlHeader) == 16);

/// Largest control payload we accept (an allocation listing thousands
/// of regions fits in a fraction of this).
constexpr uint64_t kMaxControlPayload = 16 * kMiB;

bool ReadFully(int fd, void* buf, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// One framed message in each direction.
bool SendMessage(int fd, ControlType type, const Wire& w) {
  ControlHeader hdr;
  hdr.type = static_cast<uint32_t>(type);
  hdr.payload_len = w.buf.size();
  if (!WriteFully(fd, &hdr, sizeof(hdr))) return false;
  return w.buf.empty() || WriteFully(fd, w.buf.data(), w.buf.size());
}

bool RecvMessage(int fd, ControlType* type, Wire* w) {
  ControlHeader hdr;
  if (!ReadFully(fd, &hdr, sizeof(hdr))) return false;
  if (hdr.magic != kControlMagic || hdr.payload_len > kMaxControlPayload) {
    return false;
  }
  *type = static_cast<ControlType>(hdr.type);
  w->buf.resize(hdr.payload_len);
  w->rd = 0;
  return hdr.payload_len == 0 || ReadFully(fd, w->buf.data(), w->buf.size());
}

void PutStatus(Wire* w, const Status& st) {
  w->PutI32(static_cast<int32_t>(st.code()));
  w->PutStr(std::string(st.message()));
}

Status GetStatus(Wire* w) {
  int32_t code = 0;
  std::string msg;
  if (!w->GetI32(&code) || !w->GetStr(&msg)) {
    return Status::Unavailable("malformed control response");
  }
  if (code == 0) return Status::OK();
  return Status(static_cast<StatusCode>(code), std::move(msg));
}

void PutConfig(Wire* w, const RdmaConfig& cfg) {
  w->PutU32(cfg.c);
  w->PutU32(cfg.s);
  w->PutU32(cfg.b);
  w->PutU32(cfg.q);
}

bool GetConfig(Wire* w, RdmaConfig* cfg) {
  return w->GetU32(&cfg->c) && w->GetU32(&cfg->s) && w->GetU32(&cfg->b) &&
         w->GetU32(&cfg->q);
}

void PutKey(Wire* w, const rdma::RemoteKey& key) {
  w->PutU32(key.rkey);
  w->PutU32(key.epoch);
}

bool GetKey(Wire* w, rdma::RemoteKey* key) {
  return w->GetU32(&key->rkey) && w->GetU32(&key->epoch);
}

}  // namespace

void Wire::Append(const void* p, size_t n) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  buf.insert(buf.end(), b, b + n);
}

bool Wire::Take(void* p, size_t n) {
  if (rd + n > buf.size()) return false;
  std::memcpy(p, buf.data() + rd, n);
  rd += n;
  return true;
}

void Wire::PutStr(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  Append(s.data(), s.size());
}

bool Wire::GetStr(std::string* s) {
  uint32_t n = 0;
  if (!GetU32(&n) || rd + n > buf.size()) return false;
  s->assign(reinterpret_cast<const char*>(buf.data()) + rd, n);
  rd += n;
  return true;
}

// ---------------------------------------------------------------------------
// ControlPlaneServer

ControlPlaneServer::ControlPlaneServer(SocketFabric* fabric,
                                       CacheManager* manager, uint16_t port)
    : fabric_(fabric), manager_(manager) {
  listen_fd_ = ListenTcp(fabric_->listen_host(), port, 4, &port_);
  thread_ = std::thread([this] { Serve(); });
}

ControlPlaneServer::~ControlPlaneServer() { Stop(); }

void ControlPlaneServer::Stop() {
  if (stop_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (thread_.joinable()) thread_.join();
}

void ControlPlaneServer::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ServeClient(fd);
    ::close(fd);
  }
}

void ControlPlaneServer::ServeClient(int fd) {
  while (!stop_.load(std::memory_order_acquire)) {
    ControlType type;
    Wire req;
    if (!RecvMessage(fd, &type, &req)) return;  // client went away
    Wire resp;
    if (!HandleRequest(type, &req, &resp)) return;
    if (!SendMessage(fd, type, resp)) return;
  }
}

uint64_t ControlPlaneServer::HandleFor(CacheServer* server) {
  auto it = handle_by_server_.find(server);
  if (it != handle_by_server_.end()) return it->second;
  const uint64_t h = next_handle_++;
  handle_by_server_.emplace(server, h);
  server_by_handle_.emplace(h, server);
  return h;
}

bool ControlPlaneServer::HandleRequest(ControlType type, Wire* req,
                                       Wire* resp) {
  switch (type) {
    case ControlType::kHello: {
      resp->PutU16(fabric_->port());
      return true;
    }

    case ControlType::kAllocate: {
      uint64_t capacity = 0, region_bytes = 0;
      RdmaConfig cfg;
      uint32_t record_bytes = 0, client_node = 0, max_regions_per_vm = 0;
      uint8_t spot = 0;
      int32_t max_hops = 5;
      if (!req->GetU64(&capacity) || !GetConfig(req, &cfg) ||
          !req->GetU32(&record_bytes) || !req->GetU8(&spot) ||
          !req->GetU32(&client_node) || !req->GetU64(&region_bytes) ||
          !req->GetI32(&max_hops) || !req->GetU32(&max_regions_per_vm)) {
        return false;
      }
      // Executed on the application loop: the manager boots real
      // CacheServers, allocates real regions, and we mint handles the
      // client process will use to name those servers later.
      struct WireRegion {
        uint64_t vm_id, handle;
        uint32_t region_index, rkey, epoch, node;
      };
      Status status = Status::OK();
      RdmaConfig out_cfg;
      uint64_t out_region_bytes = 0;
      double price = 0.0;
      uint8_t out_spot = 0;
      std::vector<WireRegion> regions;
      fabric_->driver()->Call([&] {
        auto alloc_or = manager_->AllocateWithConfig(
            capacity, cfg, record_bytes, spot != 0, client_node,
            region_bytes, max_hops, nullptr, max_regions_per_vm);
        if (!alloc_or.ok()) {
          status = alloc_or.status();
          return;
        }
        const CacheManager::Allocation& a = *alloc_or;
        out_cfg = a.config;
        out_region_bytes = a.region_bytes;
        price = a.price_per_hour;
        out_spot = a.spot ? 1 : 0;
        regions.reserve(a.regions.size());
        for (const auto& p : a.regions) {
          regions.push_back({p.vm_id, HandleFor(p.server), p.region_index,
                             p.key.rkey, p.key.epoch,
                             static_cast<uint32_t>(p.node)});
        }
      });
      PutStatus(resp, status);
      if (!status.ok()) return true;
      PutConfig(resp, out_cfg);
      resp->PutU64(out_region_bytes);
      resp->PutF64(price);
      resp->PutU8(out_spot);
      resp->PutU32(static_cast<uint32_t>(regions.size()));
      for (const auto& r : regions) {
        resp->PutU64(r.vm_id);
        resp->PutU64(r.handle);
        resp->PutU32(r.region_index);
        resp->PutU32(r.rkey);
        resp->PutU32(r.epoch);
        resp->PutU32(r.node);
      }
      return true;
    }

    case ControlType::kConnect: {
      uint64_t handle = 0;
      RdmaConfig cfg;
      uint32_t record_bytes = 0;
      if (!req->GetU64(&handle) || !GetConfig(req, &cfg) ||
          !req->GetU32(&record_bytes)) {
        return false;
      }
      Status status = Status::OK();
      uint64_t qp_token = 0;
      std::vector<rdma::RemoteKey> region_keys;
      rdma::RemoteKey ring_key;
      uint64_t request_slot_bytes = 0;
      uint32_t queue_depth = 0, conn_index = 0;
      fabric_->driver()->Call([&] {
        auto it = server_by_handle_.find(handle);
        if (it == server_by_handle_.end()) {
          status = Status::NotFound("unknown server handle");
          return;
        }
        auto info_or = it->second->Connect(cfg, record_bytes);
        if (!info_or.ok()) {
          status = info_or.status();
          return;
        }
        const CacheServer::ConnectionInfo& info = *info_or;
        auto* sqp = dynamic_cast<SocketQueuePair*>(info.server_qp);
        if (sqp == nullptr) {
          status = Status::Internal("server QP is not socket-backed");
          return;
        }
        qp_token = sqp->token();
        region_keys = info.region_keys;
        ring_key = info.request_ring_key;
        request_slot_bytes = info.request_slot_bytes;
        queue_depth = info.queue_depth;
        conn_index = info.conn_index;
      });
      PutStatus(resp, status);
      if (!status.ok()) return true;
      resp->PutU64(qp_token);
      resp->PutU32(static_cast<uint32_t>(region_keys.size()));
      for (const auto& k : region_keys) PutKey(resp, k);
      PutKey(resp, ring_key);
      resp->PutU64(request_slot_bytes);
      resp->PutU32(queue_depth);
      resp->PutU32(conn_index);
      return true;
    }

    case ControlType::kSetRing: {
      uint64_t handle = 0, slot_bytes = 0;
      uint32_t conn = 0;
      rdma::RemoteKey key;
      if (!req->GetU64(&handle) || !req->GetU32(&conn) ||
          !GetKey(req, &key) || !req->GetU64(&slot_bytes)) {
        return false;
      }
      Status status = Status::OK();
      fabric_->driver()->Call([&] {
        auto it = server_by_handle_.find(handle);
        if (it == server_by_handle_.end()) {
          status = Status::NotFound("unknown server handle");
          return;
        }
        status = it->second->SetResponseRing(conn, key, slot_bytes);
      });
      PutStatus(resp, status);
      return true;
    }

    case ControlType::kReleaseVm: {
      uint64_t vm = 0;
      if (!req->GetU64(&vm)) return false;
      fabric_->driver()->Call([&] { manager_->ReleaseVm(vm); });
      PutStatus(resp, Status::OK());
      return true;
    }
  }
  return false;  // unknown type: drop the connection
}

// ---------------------------------------------------------------------------
// RemoteCacheManager

RemoteCacheManager::RemoteCacheManager(sim::Simulation* sim,
                                       SocketFabric* fabric,
                                       cluster::VmAllocator* allocator,
                                       std::string host,
                                       uint16_t control_port, CostModel costs)
    : CacheManager(sim, fabric, allocator, costs),
      sim_local_(sim),
      client_fabric_(fabric),
      host_(std::move(host)),
      costs_(costs) {
  fd_ = DialTcp(host_, control_port);
  if (fd_ < 0) return;
  Wire req, resp;
  if (!Roundtrip(ControlType::kHello, &req, &resp).ok() ||
      !resp.GetU16(&data_port_)) {
    ::close(fd_);
    fd_ = -1;
  }
}

RemoteCacheManager::~RemoteCacheManager() {
  if (fd_ >= 0) ::close(fd_);
}

Status RemoteCacheManager::Roundtrip(ControlType type, Wire* req,
                                     Wire* resp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::Unavailable("control channel down");
  ControlType got;
  if (!SendMessage(fd_, type, *req) || !RecvMessage(fd_, &got, resp) ||
      got != type) {
    ::close(fd_);
    fd_ = -1;
    return Status::Unavailable("control channel broke");
  }
  return Status::OK();
}

RemoteCacheServer* RemoteCacheManager::ServerProxy(uint64_t handle,
                                                   cluster::VmId vm_id,
                                                   net::ServerId node) {
  auto it = proxies_.find(handle);
  if (it != proxies_.end()) return it->second.get();
  cluster::Vm vm;
  vm.id = vm_id;
  vm.server = node;
  auto proxy = std::make_unique<RemoteCacheServer>(
      sim_local_, client_fabric_, vm, costs_, this, handle);
  RemoteCacheServer* out = proxy.get();
  proxies_.emplace(handle, std::move(proxy));
  return out;
}

Result<CacheManager::Allocation> RemoteCacheManager::AllocateWithConfig(
    uint64_t capacity, const RdmaConfig& config, uint32_t record_bytes,
    bool spot, net::ServerId client_node, uint64_t region_bytes,
    int max_hops, const std::vector<net::ServerId>* avoid_nodes,
    uint32_t max_regions_per_vm) {
  if (avoid_nodes != nullptr && !avoid_nodes->empty()) {
    return Status::Unimplemented("avoid_nodes over the control channel");
  }
  Wire req;
  req.PutU64(capacity);
  PutConfig(&req, config);
  req.PutU32(record_bytes);
  req.PutU8(spot ? 1 : 0);
  req.PutU32(static_cast<uint32_t>(client_node));
  req.PutU64(region_bytes);
  req.PutI32(max_hops);
  req.PutU32(max_regions_per_vm);
  Wire resp;
  REDY_RETURN_IF_ERROR(Roundtrip(ControlType::kAllocate, &req, &resp));
  REDY_RETURN_IF_ERROR(GetStatus(&resp));

  Allocation alloc;
  uint8_t out_spot = 0;
  uint32_t n = 0;
  if (!GetConfig(&resp, &alloc.config) ||
      !resp.GetU64(&alloc.region_bytes) ||
      !resp.GetF64(&alloc.price_per_hour) || !resp.GetU8(&out_spot) ||
      !resp.GetU32(&n)) {
    return Status::Unavailable("malformed allocation response");
  }
  alloc.spot = out_spot != 0;
  alloc.regions.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    uint64_t vm_id = 0, handle = 0;
    uint32_t region_index = 0, node = 0;
    rdma::RemoteKey key;
    if (!resp.GetU64(&vm_id) || !resp.GetU64(&handle) ||
        !resp.GetU32(&region_index) || !resp.GetU32(&key.rkey) ||
        !resp.GetU32(&key.epoch) || !resp.GetU32(&node)) {
      return Status::Unavailable("malformed allocation response");
    }
    RegionPlacement p;
    p.vm_id = vm_id;
    p.server = ServerProxy(handle, vm_id, static_cast<net::ServerId>(node));
    p.region_index = region_index;
    p.key = key;
    p.node = static_cast<net::ServerId>(node);
    alloc.regions.push_back(p);
  }
  return alloc;
}

void RemoteCacheManager::ReleaseVm(cluster::VmId vm) {
  Wire req, resp;
  req.PutU64(vm);
  (void)Roundtrip(ControlType::kReleaseVm, &req, &resp);
}

// ---------------------------------------------------------------------------
// RemoteCacheServer

RemoteCacheServer::RemoteCacheServer(sim::Simulation* sim,
                                     SocketFabric* fabric,
                                     const cluster::Vm& vm,
                                     const CostModel& costs,
                                     RemoteCacheManager* control,
                                     uint64_t handle)
    : CacheServer(sim, fabric, vm, costs),
      client_fabric_(fabric),
      control_(control),
      handle_(handle) {}

Result<CacheServer::ConnectionInfo> RemoteCacheServer::Connect(
    const RdmaConfig& cfg, uint32_t record_bytes) {
  Wire req;
  req.PutU64(handle_);
  PutConfig(&req, cfg);
  req.PutU32(record_bytes);
  Wire resp;
  REDY_RETURN_IF_ERROR(control_->Roundtrip(ControlType::kConnect, &req,
                                           &resp));
  REDY_RETURN_IF_ERROR(GetStatus(&resp));

  uint64_t qp_token = 0;
  uint32_t nkeys = 0;
  ConnectionInfo info;
  if (!resp.GetU64(&qp_token) || !resp.GetU32(&nkeys)) {
    return Status::Unavailable("malformed connect response");
  }
  info.region_keys.resize(nkeys);
  for (uint32_t i = 0; i < nkeys; i++) {
    if (!GetKey(&resp, &info.region_keys[i])) {
      return Status::Unavailable("malformed connect response");
    }
  }
  if (!GetKey(&resp, &info.request_ring_key) ||
      !resp.GetU64(&info.request_slot_bytes) ||
      !resp.GetU32(&info.queue_depth) || !resp.GetU32(&info.conn_index)) {
    return Status::Unavailable("malformed connect response");
  }
  // The server QP crosses the process boundary as (host, data port,
  // token): a remote-endpoint descriptor the client QP's Connect()
  // dials for real.
  auto* nic = static_cast<SocketNic*>(this->nic());
  info.server_qp = nic->CreateRemoteEndpoint(control_->host(),
                                             control_->data_port(), qp_token);
  return info;
}

Status RemoteCacheServer::SetResponseRing(uint32_t conn, rdma::RemoteKey key,
                                          uint64_t slot_bytes) {
  Wire req;
  req.PutU64(handle_);
  req.PutU32(conn);
  PutKey(&req, key);
  req.PutU64(slot_bytes);
  Wire resp;
  REDY_RETURN_IF_ERROR(control_->Roundtrip(ControlType::kSetRing, &req,
                                           &resp));
  return GetStatus(&resp);
}

}  // namespace redy::transport
