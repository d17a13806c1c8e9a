#include "dist/worker_pool.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hpp"

namespace chrysalis::dist {

std::string
WorkerAddress::to_string() const
{
    return host + ":" + std::to_string(port);
}

std::vector<WorkerAddress>
parse_worker_list(const std::string& list)
{
    std::vector<WorkerAddress> workers;
    std::size_t begin = 0;
    while (begin <= list.size()) {
        std::size_t end = list.find(',', begin);
        if (end == std::string::npos)
            end = list.size();
        std::string entry = list.substr(begin, end - begin);
        // Trim surrounding whitespace so "a:1, b:2" parses.
        while (!entry.empty() && (entry.front() == ' ' ||
                                  entry.front() == '\t'))
            entry.erase(entry.begin());
        while (!entry.empty() &&
               (entry.back() == ' ' || entry.back() == '\t'))
            entry.pop_back();
        if (!entry.empty()) {
            const std::size_t colon = entry.rfind(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 == entry.size()) {
                fatal("worker list: entry '", entry,
                      "' is not host:port");
            }
            const std::string port_text = entry.substr(colon + 1);
            errno = 0;
            char* parse_end = nullptr;
            const long port =
                std::strtol(port_text.c_str(), &parse_end, 10);
            if (parse_end == port_text.c_str() || *parse_end != '\0' ||
                errno != 0 || port < 1 || port > 65535) {
                fatal("worker list: port '", port_text, "' in '", entry,
                      "' outside [1, 65535]");
            }
            workers.push_back({entry.substr(0, colon),
                               static_cast<int>(port)});
        }
        begin = end + 1;
    }
    if (workers.empty())
        fatal("worker list: no workers in '", list,
              "' (expected host:port,host:port,...)");
    return workers;
}

std::vector<WorkerStatus>
probe_workers(const std::vector<WorkerAddress>& workers,
              serve::ClientOptions client_options)
{
    client_options.max_attempts = 1;  // a probe is one question
    std::vector<WorkerStatus> statuses;
    statuses.reserve(workers.size());
    for (const WorkerAddress& address : workers) {
        WorkerStatus& status = statuses.emplace_back();
        status.address = address;
        serve::Client client(client_options);
        if (!client.connect(address.host, address.port))
            continue;
        serve::Response response;
        if (client.request("health", {}, response) !=
                serve::CallStatus::kOk ||
            !response.ok) {
            continue;
        }
        status.reachable = true;
        json_get_string(response.fields, "worker_id", status.worker_id);
        std::string state;
        json_get_string(response.fields, "status", state);
        status.ready = state != "draining";
    }
    return statuses;
}

}  // namespace chrysalis::dist
